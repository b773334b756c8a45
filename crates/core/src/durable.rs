//! Crash-safe disk-native index: immutable generations + WAL + recovery.
//!
//! [`DurableIndex`] composes the durability subsystem into one engine:
//!
//! * the main index is one serialized `S3IDX004` stream — a *generation* —
//!   written once into the data storage and never modified: the stream
//!   checks itself (a header CRC and one CRC per data block), so it needs
//!   no framing of its own;
//! * two fixed root slots at the front of the data storage name the live
//!   generation: its number, offset, length and the highest WAL LSN it
//!   covers, CRC-checked;
//! * an index created empty has no axis order of its own yet: its first
//!   merge gives the curve the order its records give ([`S3Index::build`]),
//!   and every later merge keeps it ([`S3Index::build_on`]) — so the curve
//!   is fixed for the life of the index once it holds records;
//! * queries open the live generation through the existing [`DiskIndex`]
//!   reader over an [`OffsetView`] of the data storage — so results are
//!   *bit-identical* to a flat file, and resident memory is capped by the
//!   batch's section budget, not the index size;
//! * inserts accumulate in an in-memory overlay (a [`DynamicIndex`] with
//!   an empty main), and each insert is WAL-logged and fsynced **before**
//!   it is acknowledged;
//! * a merge writes the merged generation beside the live one with one
//!   `write_at` and fsyncs, publishes it by writing the other root slot and
//!   fsyncing again, then truncates the WAL. A kill at *any* byte of that
//!   sequence recovers cleanly on reopen:
//!
//!   | crash point                          | recovery                          |
//!   |--------------------------------------|-----------------------------------|
//!   | during or after the generation write | old root stands; WAL replayed     |
//!   | inside the root slot write (torn)    | old root stands; WAL replayed     |
//!   | after the publish, before truncate   | covered WAL inserts dropped       |
//!   | after the WAL truncate               | nothing to do                     |
//!
//! Every acknowledged insert survives every crash; unacknowledged tail
//! records are truncated away by the WAL scanner. The deterministic
//! crash-point matrix in `s3-bench` (`crash_matrix` bin) kills the engine
//! at every write boundary and in the middle of every write and asserts
//! exactly this. `docs/durability.md` has the slot format and the
//! recovery rule.

use std::sync::Arc;
use std::time::Instant;

use crate::crc::crc32;
use crate::distortion::DistortionModel;
use crate::dynamic::{DynamicIndex, MergeOutcome};
use crate::error::IndexError;
use crate::fingerprint::RecordBatch;
use crate::index::{slot_depth, S3Index, StatQueryOpts};
use crate::metrics::CoreMetrics;
use crate::plan::{query_scope, Plan};
use crate::pseudo_disk::{BatchResult, DiskIndex, WriteOpts, DEFAULT_BLOCK_SIZE, TABLE_DEPTH};
use crate::storage::{le_u64, OffsetView, WritableStorage};
use crate::wal::{Wal, WalRecord};
use s3_hilbert::HilbertCurve;

type DynStorage = Box<dyn WritableStorage>;

/// Magic that opens every written root slot.
const ROOT_MAGIC: &[u8; 8] = b"S3ROOT01";
/// Bytes of one root slot:
/// `magic | generation u64 | offset u64 | len u64 | covered_lsn u64 | crc u32`.
const SLOT_LEN: usize = 8 + 8 + 8 + 8 + 8 + 4;
/// Bytes of both root slots; the first generation starts right after them.
const ROOT_BYTES: u64 = 2 * SLOT_LEN as u64;

/// Tuning knobs of a [`DurableIndex`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Overlay fraction of the on-disk record count that triggers an
    /// automatic merge (with a 256-record floor — same rule as
    /// [`DynamicIndex`]).
    pub merge_fraction: f64,
    /// Bytes per checksummed data block of each generation.
    pub block_size: u32,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            merge_fraction: 0.1,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }
}

impl DurableOptions {
    /// Format of a generation holding `index`: its slot table as deep as
    /// an in-memory index of as many records has, up to [`TABLE_DEPTH`].
    fn write_opts(&self, index: &S3Index) -> WriteOpts {
        WriteOpts {
            table_depth: slot_depth(index.curve(), index.len()).min(TABLE_DEPTH),
            block_size: self.block_size,
        }
    }
}

/// One root slot: which generation is live, where it lies, and the
/// highest WAL LSN its records include.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Root {
    generation: u64,
    offset: u64,
    len: u64,
    covered_lsn: u64,
}

impl Root {
    /// The slot generation `generation` is published in: they alternate,
    /// so publishing never overwrites the live root.
    fn slot_offset(generation: u64) -> u64 {
        (generation % 2) * SLOT_LEN as u64
    }

    fn end(&self) -> u64 {
        self.offset + self.len
    }

    fn encode(&self) -> [u8; SLOT_LEN] {
        let mut slot = [0u8; SLOT_LEN];
        slot[..8].copy_from_slice(ROOT_MAGIC);
        for (i, v) in [self.generation, self.offset, self.len, self.covered_lsn]
            .into_iter()
            .enumerate()
        {
            slot[8 + 8 * i..16 + 8 * i].copy_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&slot[..SLOT_LEN - 4]);
        slot[SLOT_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        slot
    }

    /// `Ok(None)` for a slot never written (all zero), `Err(())` for one
    /// that fails its magic or CRC or names bytes no generation can hold.
    fn decode(slot: &[u8]) -> Result<Option<Root>, ()> {
        if slot.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let (body, crc) = slot.split_at(SLOT_LEN - 4);
        if &body[..8] != ROOT_MAGIC || crc32(body).to_le_bytes() != crc {
            return Err(());
        }
        let u64_at = |i: usize| le_u64(&body[8 + 8 * i..]);
        let root = Root {
            generation: u64_at(0),
            offset: u64_at(1),
            len: u64_at(2),
            covered_lsn: u64_at(3),
        };
        if root.offset < ROOT_BYTES || root.offset.checked_add(root.len).is_none() {
            return Err(());
        }
        Ok(Some(root))
    }
}

/// Reads both root slots: the newest valid root, and whether a slot fails
/// its magic or CRC.
fn read_roots(data: &DynStorage) -> Result<(Root, bool), IndexError> {
    let not_durable = |detail: &str| IndexError::Format {
        detail: format!("not a durable index: {detail}"),
    };
    if data.len()? < ROOT_BYTES {
        return Err(not_durable("shorter than its root slots"));
    }
    let mut slots = [0u8; ROOT_BYTES as usize];
    data.read_at(0, &mut slots)?;
    let decoded = [
        Root::decode(&slots[..SLOT_LEN]),
        Root::decode(&slots[SLOT_LEN..]),
    ];
    let newest = decoded
        .iter()
        .filter_map(|s| s.ok().flatten())
        .max_by_key(|r| r.generation)
        .ok_or_else(|| not_durable("no valid root slot"))?;
    Ok((newest, decoded.iter().any(Result::is_err)))
}

/// Writes `bytes` as the generation `root` names, then publishes it:
/// generation bytes, fsync, root slot, fsync.
fn publish(data: &DynStorage, root: &Root, bytes: &[u8]) -> Result<(), IndexError> {
    data.write_at(root.offset, bytes)?;
    data.sync()?;
    data.write_at(Root::slot_offset(root.generation), &root.encode())?;
    data.sync()?;
    Ok(())
}

/// Opens the generation `root` names through a view of the data storage.
fn open_generation(data: &Arc<DynStorage>, root: &Root) -> Result<DiskIndex, IndexError> {
    DiskIndex::open_storage(Box::new(OffsetView::new(
        Arc::clone(data),
        root.offset,
        root.len,
    )))
}

/// What recovery found and did when the index was opened.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Outcome of the most recent merge, as recovery saw it.
    pub outcome: MergeOutcome,
    /// Acknowledged inserts replayed from the WAL into the overlay.
    pub replayed_inserts: usize,
}

/// A crash-safe, insert-capable, larger-than-memory S³ index.
#[derive(Debug)]
pub struct DurableIndex {
    data: Arc<DynStorage>,
    /// The live generation's root.
    root: Root,
    wal: Wal<DynStorage>,
    disk: DiskIndex,
    /// Queryable overlay of unmerged inserts (empty main, same curve).
    mem: DynamicIndex,
    /// The same records, in arrival order — the merge source.
    pending: RecordBatch,
    opts: DurableOptions,
    curve: HilbertCurve,
    recovery: RecoveryReport,
    merges: usize,
}

impl DurableIndex {
    /// Formats `data` as an index holding one empty generation over
    /// `curve`, empties `wal`, and opens both. The first merge ranks the
    /// curve's axes from the records it merges, as [`S3Index::build`] does;
    /// every later merge keeps that order.
    pub fn create(
        data: DynStorage,
        wal: DynStorage,
        curve: HilbertCurve,
        opts: DurableOptions,
    ) -> Result<DurableIndex, IndexError> {
        let empty = S3Index::build_on(curve.clone(), RecordBatch::new(curve.dims()));
        let bytes = DiskIndex::encode_to_vec(&empty, opts.write_opts(&empty))?;
        let root = Root {
            generation: 0,
            offset: ROOT_BYTES,
            len: bytes.len() as u64,
            covered_lsn: 0,
        };
        data.truncate(0)?;
        publish(&data, &root, &bytes)?;
        wal.truncate(0)?;
        let (wal, _) = Wal::open(wal, 0)?;
        Self::assemble(
            Arc::new(data),
            root,
            wal,
            opts,
            Vec::new(),
            MergeOutcome::Completed,
        )
    }

    /// Opens an existing index, running recovery: the newest valid root
    /// names the live generation, and the acknowledged inserts the WAL
    /// holds above its covered LSN are replayed into the overlay. A root
    /// slot that fails its CRC is a torn publish only when the WAL starts
    /// right after the live root's covered LSN — the inserts the torn merge
    /// was folding in; otherwise it is corruption and `open` returns
    /// [`IndexError::Format`] rather than fall back to an older generation.
    /// After `open` returns, query results are bit-identical to what an
    /// uncrashed run would produce over the acknowledged writes.
    pub fn open(
        data: DynStorage,
        wal: DynStorage,
        opts: DurableOptions,
    ) -> Result<DurableIndex, IndexError> {
        let (root, torn) = read_roots(&data)?;
        let (mut wal, records) = Wal::open(wal, root.covered_lsn)?;
        let mut outcome = MergeOutcome::Completed;
        if torn {
            if records.first().map(|(lsn, _)| *lsn) != Some(root.covered_lsn + 1) {
                return Err(IndexError::Format {
                    detail: "a root slot fails its CRC outside a publish".into(),
                });
            }
            outcome = MergeOutcome::RolledBack;
        }
        // Inserts the live generation already covers — its publish finished,
        // the WAL truncate did not — are a prefix of the log.
        let covered = records
            .iter()
            .take_while(|(lsn, _)| *lsn <= root.covered_lsn)
            .count();
        if covered > 0 {
            outcome = MergeOutcome::Replayed;
            if covered == records.len() {
                wal.checkpoint()?;
            }
        }
        let inserts = records
            .into_iter()
            .skip(covered)
            .map(|(_, WalRecord::Insert { fp, id, tc })| (fp, id, tc))
            .collect();
        Self::assemble(Arc::new(data), root, wal, opts, inserts, outcome)
    }

    fn assemble(
        data: Arc<DynStorage>,
        root: Root,
        wal: Wal<DynStorage>,
        opts: DurableOptions,
        inserts: Vec<(Vec<u8>, u32, u32)>,
        outcome: MergeOutcome,
    ) -> Result<DurableIndex, IndexError> {
        let disk = open_generation(&data, &root)?;
        let curve = disk.curve().clone();
        let mut mem = DynamicIndex::uncounted(curve.clone());
        let mut pending = RecordBatch::new(curve.dims());
        for (fp, id, tc) in &inserts {
            mem.insert(fp, *id, *tc);
            pending.push(fp, *id, *tc);
        }
        Ok(DurableIndex {
            data,
            root,
            wal,
            disk,
            mem,
            pending,
            opts,
            curve,
            recovery: RecoveryReport {
                outcome,
                replayed_inserts: inserts.len(),
            },
            merges: 0,
        })
    }

    /// Inserts one record. The insert is WAL-logged and fsynced before it
    /// is acknowledged: once this returns `Ok`, the record survives any
    /// crash. May trigger an automatic durable merge when the overlay
    /// outgrows `merge_fraction` of the on-disk index.
    pub fn insert(&mut self, fingerprint: &[u8], id: u32, tc: u32) -> Result<(), IndexError> {
        let rec = WalRecord::Insert {
            fp: fingerprint.to_vec(),
            id,
            tc,
        };
        self.wal.append(&rec)?;
        self.wal.sync()?;
        self.mem.insert(fingerprint, id, tc);
        self.pending.push(fingerprint, id, tc);
        let threshold = (self.disk.len() as f64 * self.opts.merge_fraction).max(256.0);
        if self.pending.len() as f64 > threshold {
            self.merge()?;
        }
        Ok(())
    }

    /// Merges the overlay into a new generation and publishes it.
    /// Crash-safe at every byte: the commit point is the fsync after the
    /// root slot write — before it the old generation stands and the WAL
    /// replays the overlay on reopen, after it the new generation is live.
    ///
    /// The new generation goes at the front of the data storage when it
    /// fits before the live one, else right after it; it never overlaps
    /// the live generation. Once a front-placed generation is published,
    /// the storage is cut to its end, so it never holds more than the root
    /// slots and three generations.
    pub fn merge(&mut self) -> Result<MergeOutcome, IndexError> {
        if self.pending.is_empty() {
            return Ok(MergeOutcome::Completed);
        }
        // Build the merged generation in memory.
        let mut all = self.disk.to_record_batch()?;
        for i in 0..self.pending.len() {
            all.push(
                self.pending.fingerprint(i),
                self.pending.id(i),
                self.pending.tc(i),
            );
        }
        // The first generation to hold records chooses the axis order; every
        // later one keeps it.
        let merged = if self.disk.is_empty() {
            S3Index::build(self.curve.clone(), all)
        } else {
            S3Index::build_on(self.curve.clone(), all)
        };
        let bytes = DiskIndex::encode_to_vec(&merged, self.opts.write_opts(&merged))?;
        drop(merged);
        let len = bytes.len() as u64;
        let offset = if ROOT_BYTES + len <= self.root.offset {
            ROOT_BYTES
        } else {
            self.root.end()
        };
        let root = Root {
            generation: self.root.generation + 1,
            offset,
            len,
            covered_lsn: self.wal.next_lsn() - 1,
        };
        publish(&self.data, &root, &bytes)?;
        drop(bytes);

        // The generation is live: retire the log, drop what lies past a
        // front-placed generation, and swap the reader over.
        self.root = root;
        self.wal.checkpoint()?;
        if offset == ROOT_BYTES {
            self.data.truncate(root.end())?;
        }
        self.disk = open_generation(&self.data, &root)?;
        self.curve = self.disk.curve().clone();
        self.mem = DynamicIndex::uncounted(self.curve.clone());
        self.pending = RecordBatch::new(self.curve.dims());
        self.merges += 1;
        CoreMetrics::get().merge_ok.inc();
        Ok(MergeOutcome::Completed)
    }

    /// Statistical query batch over the on-disk index plus the overlay.
    pub fn stat_query_batch(
        &self,
        queries: &[&[u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        mem_budget: u64,
    ) -> Result<BatchResult, IndexError> {
        let _scope = query_scope(None);
        let plan = Plan::stat(&self.curve, queries, model, opts, self.disk.threads(), None)?;
        self.scan_and_finish(&plan, mem_budget)
    }

    /// Exact ε-range query batch over the on-disk index plus the overlay.
    pub fn range_query_batch(
        &self,
        queries: &[&[u8]],
        eps: f64,
        depth: u32,
        mem_budget: u64,
    ) -> Result<BatchResult, IndexError> {
        let _scope = query_scope(None);
        let plan = Plan::range(&self.curve, queries, eps, depth, self.disk.threads(), None)?;
        self.scan_and_finish(&plan, mem_budget)
    }

    /// One plan, two scans, one fold: the disk generation, then the
    /// unmerged inserts — whose matches get indices offset by the on-disk
    /// record count so they stay unique within a result — and an epilogue
    /// over the records of both.
    fn scan_and_finish(&self, plan: &Plan, mem_budget: u64) -> Result<BatchResult, IndexError> {
        let mut scan = self.disk.scan(plan, mem_budget, None)?;
        if !self.mem.is_empty() {
            let t0 = Instant::now();
            let base = self.disk.len() as usize;
            for ((q, query), scan) in plan
                .queries
                .iter()
                .zip(&plan.per_query)
                .zip(&mut scan.per_query)
            {
                scan.absorb(self.mem.scan(q, query, &plan.ask), base);
            }
            scan.timing.refine += t0.elapsed();
        }
        Ok(plan.finish(scan, self.len(), None, None))
    }

    /// Total acknowledged records: on-disk plus unmerged overlay.
    pub fn len(&self) -> u64 {
        self.disk.len() + self.pending.len() as u64
    }

    /// True when the index holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records merged to disk.
    pub fn disk_len(&self) -> u64 {
        self.disk.len()
    }

    /// Acknowledged records awaiting the next merge.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Durable merges completed by this handle.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The Hilbert curve of the index: the one it was created on until its
    /// first merge, the order that merge chose from then on.
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// A point-in-time snapshot of the whole engine's observable state —
    /// what the flight recorder stamps into incident dumps.
    pub fn engine_state(&self) -> EngineState {
        EngineState {
            generation: self.root.generation,
            checkpoint_lsn: self.root.covered_lsn,
            data_len: self.root.len,
            wal_len: self.wal.len(),
            wal_next_lsn: self.wal.next_lsn(),
            pending: self.pending.len(),
            disk_records: self.disk.len(),
            merges: self.merges,
            recovery: self.recovery,
        }
    }
}

/// Observable storage-engine state (see [`DurableIndex::engine_state`]).
#[derive(Clone, Copy, Debug)]
pub struct EngineState {
    /// Live generation (bumped per published merge).
    pub generation: u64,
    /// Highest WAL LSN the live generation covers.
    pub checkpoint_lsn: u64,
    /// Bytes of the live generation's serialized index stream.
    pub data_len: u64,
    /// WAL tail: bytes appended since the last checkpoint.
    pub wal_len: u64,
    /// LSN the next WAL append will carry.
    pub wal_next_lsn: u64,
    /// Acknowledged records awaiting the next merge.
    pub pending: usize,
    /// Records merged to disk.
    pub disk_records: u64,
    /// Merges completed by this handle.
    pub merges: usize,
    /// What recovery found when the handle was opened.
    pub recovery: RecoveryReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::{CountingModel, IsotropicNormal};
    use crate::filter::select_blocks_stat;
    use crate::index::{Match, QueryStats};
    use crate::storage::{MemStorage, SharedMemStorage, Storage};

    fn curve() -> HilbertCurve {
        HilbertCurve::new(4, 8).unwrap()
    }

    fn fp(seed: u32) -> Vec<u8> {
        (0..4).map(|i| ((seed * 37 + i * 11) % 16) as u8).collect()
    }

    fn opts_small() -> DurableOptions {
        DurableOptions::default()
    }

    fn boxed(s: &SharedMemStorage) -> Box<dyn WritableStorage> {
        Box::new(s.clone())
    }

    #[test]
    fn create_insert_merge_reopen_round_trips() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        for i in 0..20 {
            idx.insert(&fp(i), i, i * 10).unwrap();
        }
        assert_eq!(idx.len(), 20);
        assert_eq!(idx.pending_len(), 20);
        let outcome = idx.merge().unwrap();
        assert_eq!(outcome, MergeOutcome::Completed);
        assert_eq!(idx.disk_len(), 20);
        assert_eq!(idx.pending_len(), 0);
        drop(idx);

        let reopened = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap();
        assert_eq!(reopened.len(), 20);
        assert_eq!(reopened.recovery().outcome, MergeOutcome::Completed);
        assert_eq!(reopened.recovery().replayed_inserts, 0);
    }

    #[test]
    fn unmerged_inserts_replay_from_wal() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        for i in 0..7 {
            idx.insert(&fp(i), i, i).unwrap();
        }
        // Simulate a crash: drop without merging.
        drop(idx);

        let reopened = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap();
        assert_eq!(reopened.recovery().replayed_inserts, 7);
        assert_eq!(reopened.len(), 7);
        assert_eq!(reopened.disk_len(), 0);
    }

    #[test]
    fn queries_see_disk_and_overlay_identically() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        for i in 0..10 {
            idx.insert(&fp(i), i, i).unwrap();
        }
        idx.merge().unwrap();
        for i in 10..15 {
            idx.insert(&fp(i), i, i).unwrap();
        }
        let queries: Vec<Vec<u8>> = (0..15).map(fp).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = idx.range_query_batch(&refs, 0.5, 8, 1 << 20).unwrap();
        for (i, matches) in batch.matches.iter().enumerate() {
            assert!(
                matches.iter().any(|m| m.id == i as u32),
                "query {i} must find its own record (got {matches:?})"
            );
        }
        // Statistical path answers too.
        let model = IsotropicNormal::new(4, 4.0);
        let opts = StatQueryOpts::new(0.9, 8);
        let stat = idx.stat_query_batch(&refs, &model, &opts, 1 << 20).unwrap();
        assert_eq!(stat.matches.len(), 15);

        // Merged, and again once reopened, the generation answers exactly as a
        // flat file of the same records does.
        idx.merge().unwrap();
        let mut all = RecordBatch::new(4);
        for i in 0..15 {
            all.push(&fp(i), i, i);
        }
        let flat_index = S3Index::build_on(idx.curve().clone(), all);
        let bytes = DiskIndex::encode_to_vec(&flat_index, WriteOpts::default()).unwrap();
        let flat = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
        let want_stat = flat
            .stat_query_batch(&refs, &model, &opts, 1 << 20)
            .unwrap()
            .matches;
        let want_range = flat
            .range_query_batch(&refs, 0.5, 8, 1 << 20, None)
            .unwrap()
            .matches;
        assert!(want_range.iter().all(|m| !m.is_empty()));
        let check = |idx: &DurableIndex| {
            let stat = idx.stat_query_batch(&refs, &model, &opts, 1 << 20).unwrap();
            assert_eq!(stat.matches, want_stat);
            let range = idx.range_query_batch(&refs, 0.5, 8, 1 << 20).unwrap();
            assert_eq!(range.matches, want_range);
        };
        check(&idx);
        drop(idx);
        let reopened = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap();
        assert_eq!((reopened.disk_len(), reopened.pending_len()), (15, 0));
        check(&reopened);
    }

    #[test]
    fn first_merge_chooses_the_order_and_reopen_keeps_it() {
        // Components 0 and 2 spread over the byte range, 1 and 3 stay within
        // 16 of the centre.
        let lopsided = |i: u32| -> Vec<u8> {
            let h = i.wrapping_mul(0x9E37_79B9);
            let b = h.to_le_bytes();
            vec![b[0], 120 + b[1] % 16, b[2], 120 + b[3] % 16]
        };
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        assert!(idx.curve().is_identity(), "nothing merged, nothing ranked");
        let mut all = RecordBatch::new(4);
        for i in 0..200 {
            idx.insert(&lopsided(i), i, i).unwrap();
            all.push(&lopsided(i), i, i);
        }
        assert_eq!(idx.merges(), 0);
        idx.merge().unwrap();
        let ranked = idx.curve().clone();
        assert_eq!(&ranked, S3Index::build(curve(), all.clone()).curve());
        assert_eq!(
            ranked.split_order()[..2],
            [0, 2],
            "the wide components first"
        );
        // Later merges keep it, whatever their records would rank.
        for i in 200..800 {
            let fp = [120 + (i % 16) as u8, (i * 7) as u8, 120, (i * 13) as u8];
            idx.insert(&fp, i, i).unwrap();
            all.push(&fp, i, i);
        }
        assert!(idx.merges() >= 2 && idx.pending_len() > 0);
        assert_eq!(idx.curve(), &ranked);
        drop(idx);

        // Reopen: the order comes back from the header; the unmerged tail is
        // replayed on it.
        let reopened = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap();
        assert!(reopened.recovery().replayed_inserts > 0);
        assert_eq!(reopened.curve(), &ranked);
        let fresh = S3Index::build_on(ranked, all);
        let model = IsotropicNormal::new(4, 6.0);
        let queries: Vec<Vec<u8>> = (0..800)
            .step_by(37)
            .map(|i| fresh.records().fingerprint(i).to_vec())
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let opts = StatQueryOpts::new(0.9, 8);
        let stat = reopened
            .stat_query_batch(&refs, &model, &opts, 1 << 20)
            .unwrap();
        let range = reopened.range_query_batch(&refs, 20.0, 8, 1 << 20).unwrap();
        let ids = |ms: &[Match]| {
            let mut v: Vec<(u32, u32)> = ms.iter().map(|m| (m.id, m.tc)).collect();
            v.sort_unstable();
            v
        };
        for (qi, q) in refs.iter().enumerate() {
            let want = fresh.stat_query(q, &model, &opts);
            assert_eq!(ids(&stat.matches[qi]), ids(&want.matches), "stat {qi}");
            let want = fresh.range_query(q, 20.0, 8);
            assert_eq!(ids(&range.matches[qi]), ids(&want.matches), "range {qi}");
        }
    }

    #[test]
    fn mixed_batch_is_one_plan_two_scans_one_fold() {
        // 300 records merged to disk, 290 more unmerged — enough for the
        // in-memory side to have folded most of them into a static run of
        // its own, beside a sorted tail. A batch filters each query exactly
        // once, and its stats are that filter's counters plus the records of
        // EVERY run inside its ranges — what a fresh static index over all
        // 590 records scans.
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let opts = DurableOptions {
            merge_fraction: 1.0,
            ..opts_small()
        };
        let mut idx = DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts).unwrap();
        let mut on_disk = RecordBatch::new(4);
        let mut all = RecordBatch::new(4);
        for i in 0..590 {
            idx.insert(&fp(i), i, i).unwrap();
            all.push(&fp(i), i, i);
            if i < 300 {
                on_disk.push(&fp(i), i, i);
            }
            if i == 299 {
                idx.merge().unwrap();
            }
        }
        assert_eq!((idx.disk_len(), idx.pending_len()), (300, 290));
        assert!(idx.mem.merges() > 0 && idx.mem.overlay_len() > 0);
        // The first merge chose the order; both references are built on it.
        let ranked = idx.curve().clone();
        let disk_only = S3Index::build_on(ranked.clone(), on_disk);
        let fresh = S3Index::build_on(ranked.clone(), all);

        let model = CountingModel::new(IsotropicNormal::new(4, 4.0));
        let opts = StatQueryOpts::new(0.9, 8);
        let queries: Vec<Vec<u8>> = (585..590).map(fp).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        for q in &refs {
            select_blocks_stat(&ranked, &model, q, &opts, None);
        }
        let one_filter_each = model.take_integrations();
        let batch = idx.stat_query_batch(&refs, &model, &opts, 1 << 20).unwrap();
        assert_eq!(model.take_integrations(), one_filter_each);

        for (qi, q) in refs.iter().enumerate() {
            let want = fresh.stat_query(q, &model, &opts);
            let st = &batch.stats[qi];
            assert_eq!(
                QueryStats {
                    ranges_scanned: want.stats.ranges_scanned,
                    ..*st
                },
                want.stats,
                "query {qi}"
            );
            assert!(
                st.entries_scanned > disk_only.stat_query(q, &model, &opts).stats.entries_scanned,
                "query {qi} must count its overlay records"
            );
            let ids = |ms: &[Match]| {
                let mut v: Vec<u32> = ms.iter().map(|m| m.id).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(ids(&batch.matches[qi]), ids(&want.matches), "query {qi}");
        }
    }

    /// Inserts `range` as records `(fp(i), i, i)`.
    fn insert_all(idx: &mut DurableIndex, range: std::ops::Range<u32>) {
        for i in range {
            idx.insert(&fp(i), i, i).unwrap();
        }
    }

    /// Flips one bit of the root slot generation `generation` was
    /// published in.
    fn flip_root_bit(data: &SharedMemStorage, generation: u64) {
        let off = Root::slot_offset(generation) + 13;
        let mut byte = [0u8];
        data.read_at(off, &mut byte).unwrap();
        data.write_at(off, &[byte[0] ^ 0x10]).unwrap();
    }

    #[test]
    fn bit_flip_in_the_newer_root_is_an_error_not_the_older_generation() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        insert_all(&mut idx, 0..20);
        idx.merge().unwrap();
        insert_all(&mut idx, 20..30);
        idx.merge().unwrap();
        let older = idx.root;
        insert_all(&mut idx, 30..45);
        idx.merge().unwrap();
        assert_eq!((older.generation, idx.root.generation), (2, 3));
        // The older generation is still whole beside the newer one, so
        // falling back to it would "work".
        assert!(older.end() <= idx.root.offset);
        drop(idx);

        // Truncated WAL, then with inserts past the newer root in it.
        flip_root_bit(&data, 3);
        let err = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap_err();
        assert!(matches!(err, IndexError::Format { .. }), "{err:?}");
        flip_root_bit(&data, 3);
        let mut idx = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap();
        assert_eq!(idx.len(), 45);
        insert_all(&mut idx, 45..50);
        drop(idx);
        flip_root_bit(&data, 3);
        let err = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap_err();
        assert!(matches!(err, IndexError::Format { .. }), "{err:?}");
    }

    #[test]
    fn torn_newer_root_opens_the_older_generation_and_replays_the_wal() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        insert_all(&mut idx, 0..20);
        idx.merge().unwrap();
        insert_all(&mut idx, 20..30);
        let (data_before, wal_before) = (data.snapshot(), wal.snapshot());
        idx.merge().unwrap();
        assert_eq!(idx.root.generation, 2);
        drop(idx);

        // The kill landed half the new root slot: the new generation's bytes
        // are in place, the WAL still holds the ten inserts it merged.
        let slot = Root::slot_offset(2) as usize;
        let mut torn = data.snapshot();
        torn[slot + SLOT_LEN / 2..slot + SLOT_LEN]
            .copy_from_slice(&data_before[slot + SLOT_LEN / 2..slot + SLOT_LEN]);
        let (data, wal) = (
            SharedMemStorage::from_bytes(torn),
            SharedMemStorage::from_bytes(wal_before),
        );
        let reopened = DurableIndex::open(boxed(&data), boxed(&wal), opts_small()).unwrap();
        let rep = reopened.recovery();
        assert_eq!(
            (rep.outcome, rep.replayed_inserts),
            (MergeOutcome::RolledBack, 10)
        );
        assert_eq!((reopened.disk_len(), reopened.pending_len()), (20, 10));
        assert_eq!(reopened.engine_state().generation, 1);
        let queries: Vec<Vec<u8>> = (0..30).map(fp).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = reopened.range_query_batch(&refs, 0.5, 8, 1 << 20).unwrap();
        for (i, matches) in batch.matches.iter().enumerate() {
            assert!(matches.iter().any(|m| m.id == i as u32), "query {i}");
        }
    }

    #[test]
    fn storage_holds_at_most_three_generations() {
        let data = SharedMemStorage::new();
        let wal = SharedMemStorage::new();
        let mut idx =
            DurableIndex::create(boxed(&data), boxed(&wal), curve(), opts_small()).unwrap();
        assert!(
            idx.root.len < 1024,
            "the empty generation carries no full table"
        );
        let (mut largest, mut front_cuts, mut i) = (idx.root.len, 0, 0u32);
        while idx.merges() < 41 {
            idx.insert(&i.wrapping_mul(0x9E37_79B9).to_le_bytes(), i, i)
                .unwrap();
            i += 1;
            if idx.pending_len() > 0 {
                continue;
            }
            largest = largest.max(idx.root.len);
            let len = data.len().unwrap();
            assert!(
                len <= ROOT_BYTES + 3 * largest,
                "merge {}: {len} bytes stored, largest generation {largest}",
                idx.merges()
            );
            if idx.root.offset == ROOT_BYTES {
                assert_eq!(len, idx.root.end(), "cut to a front-placed generation");
                front_cuts += 1;
            }
        }
        assert!(front_cuts >= 5, "{front_cuts} front-placed generations");
        assert_eq!(idx.disk_len(), u64::from(i));
    }
}
