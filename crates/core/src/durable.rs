//! Crash-safe disk-native index: pages + WAL + recovery.
//!
//! [`DurableIndex`] composes the durability subsystem into one engine:
//!
//! * the main index is the serialized `S3IDX004` byte stream,
//!   chunked into self-verifying pages of a [`PageStore`] (see
//!   [`crate::pager`]);
//! * an index created empty has no axis order of its own yet: its first
//!   merge gives the curve the order its records give ([`S3Index::build`]),
//!   and every later merge keeps it ([`S3Index::build_on`]) — so the curve
//!   is fixed for the life of the index once it holds records;
//! * queries open the stream through the existing [`DiskIndex`] reader,
//!   which reads the pages straight through the pager ([`DataPages`]) —
//!   so results are *bit-identical* to a flat file, and resident memory
//!   is capped by the batch's section budget, not the index size;
//! * inserts accumulate in an in-memory overlay (a [`DynamicIndex`] with
//!   an empty main), and each insert is WAL-logged and fsynced **before**
//!   it is acknowledged;
//! * a merge follows the classical redo protocol: log
//!   `MergeBegin + page images + MergeCommit`, fsync, apply the pages,
//!   update the meta page, checkpoint the log. A kill at *any* byte of
//!   that sequence recovers cleanly on reopen:
//!
//!   | crash point                        | recovery                        |
//!   |------------------------------------|---------------------------------|
//!   | before the commit record is synced | merge rolled back; its inserts  |
//!   |                                    | replayed from their WAL records |
//!   | after commit, during/after the     | merge redone idempotently from  |
//!   | page writes                        | the logged page images          |
//!   | after the WAL checkpoint           | nothing to do                   |
//!
//! Every acknowledged insert survives every crash; unacknowledged tail
//! records are truncated away by the WAL scanner. The deterministic
//! crash-point matrix in `s3-bench` (`crash_matrix` bin) kills the engine
//! at every WAL record boundary and mid-page-write and asserts exactly
//! this.

use std::sync::Arc;
use std::time::Instant;

use crate::distortion::DistortionModel;
use crate::dynamic::{DynamicIndex, MergeOutcome};
use crate::error::IndexError;
use crate::fingerprint::RecordBatch;
use crate::index::{S3Index, StatQueryOpts};
use crate::metrics::CoreMetrics;
use crate::pager::{DataPages, PageMeta, PageStore, DEFAULT_PAGE_SIZE};
use crate::plan::{query_scope, Plan};
use crate::pseudo_disk::{BatchResult, DiskIndex, WriteOpts};
use crate::storage::WritableStorage;
use crate::wal::{Wal, WalRecord};
use s3_hilbert::HilbertCurve;

type DynStorage = Box<dyn WritableStorage>;
type DynPages = PageStore<DynStorage>;

/// Tuning knobs of a [`DurableIndex`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Page size of the index file.
    pub page_size: u32,
    /// Overlay fraction of the on-disk record count that triggers an
    /// automatic merge (with a 256-record floor — same rule as
    /// [`DynamicIndex`]).
    pub merge_fraction: f64,
    /// Format options of the serialized index stream.
    pub write_opts: WriteOpts,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            page_size: DEFAULT_PAGE_SIZE,
            merge_fraction: 0.1,
            write_opts: WriteOpts::default(),
        }
    }
}

/// What recovery found and did when the index was opened.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Outcome of the most recent merge, as recovery saw it.
    pub outcome: MergeOutcome,
    /// Acknowledged inserts replayed from the WAL into the overlay.
    pub replayed_inserts: usize,
    /// Page images re-applied from the WAL (committed-merge redo).
    pub redone_pages: usize,
}

/// A crash-safe, insert-capable, larger-than-memory S³ index.
#[derive(Debug)]
pub struct DurableIndex {
    pages: Arc<DynPages>,
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
    /// Formats `data` as an empty paged index over `curve` and opens it.
    /// The first merge ranks the curve's axes from the records it merges,
    /// as [`S3Index::build`] does; every later merge keeps that order.
    pub fn create(
        data: DynStorage,
        wal: DynStorage,
        curve: HilbertCurve,
        opts: DurableOptions,
    ) -> Result<DurableIndex, IndexError> {
        let empty = S3Index::build_on(curve.clone(), RecordBatch::new(curve.dims()));
        let bytes = DiskIndex::encode_to_vec(&empty, opts.write_opts)?;
        let pages = PageStore::create(data, opts.page_size)?;
        let cap = pages.payload_capacity();
        for (i, chunk) in bytes.chunks(cap).enumerate() {
            pages.write_page(i as u64 + 1, 0, chunk)?;
        }
        pages.set_meta(PageMeta {
            page_size: opts.page_size,
            data_len: bytes.len() as u64,
            n_pages: bytes.len().div_ceil(cap) as u64,
            generation: 0,
            checkpoint_lsn: 0,
        })?;
        pages.sync()?;
        let (wal, _) = Wal::open(wal, 0)?;
        Self::assemble(
            Arc::new(pages),
            wal,
            opts,
            Vec::new(),
            RecoveryReport {
                outcome: MergeOutcome::Completed,
                replayed_inserts: 0,
                redone_pages: 0,
            },
        )
    }

    /// Opens an existing paged index, running WAL recovery: a committed
    /// but unapplied merge is redone from its logged page images; an
    /// uncommitted merge is rolled back; acknowledged inserts not covered
    /// by a committed merge are replayed into the overlay. After `open`
    /// returns, query results are bit-identical to what an uncrashed run
    /// would produce over the acknowledged writes.
    pub fn open(
        data: DynStorage,
        wal: DynStorage,
        opts: DurableOptions,
    ) -> Result<DurableIndex, IndexError> {
        let (pages, meta_reinit) = PageStore::open_or_reinit(data, opts.page_size)?;
        let meta = pages.meta();
        let (mut wal, records) = Wal::open(wal, meta.checkpoint_lsn)?;

        let last_commit = records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::MergeCommit { .. }));
        let last_begin = records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::MergeBegin { .. }));

        let mut redone_pages = 0usize;
        let mut outcome = MergeOutcome::Completed;

        if meta_reinit && last_commit.is_none() {
            // The meta page is only rewritten after a merge commit is
            // durable, so a torn meta page without its commit record in
            // the WAL means the file is corrupt beyond the crash model.
            return Err(IndexError::Format {
                detail: "torn meta page but the WAL holds no committed merge".into(),
            });
        }

        if let Some(c) = last_commit {
            let commit_lsn = records[c].0;
            let WalRecord::MergeCommit { generation } = records[c].1 else {
                unreachable!("rposition found a MergeCommit");
            };
            if commit_lsn > meta.checkpoint_lsn {
                // Committed but (possibly) not fully applied: redo every
                // page image of this merge. Whole-page writes make the
                // redo idempotent — pages already at the image LSN are
                // simply rewritten with identical bytes.
                let begin = records[..c]
                    .iter()
                    .rposition(|(_, r)| {
                        matches!(r, WalRecord::MergeBegin { generation: g, .. } if *g == generation)
                    })
                    .ok_or_else(|| IndexError::Format {
                        detail: "WAL holds a MergeCommit without its MergeBegin".into(),
                    })?;
                let WalRecord::MergeBegin {
                    n_pages, data_len, ..
                } = records[begin].1
                else {
                    unreachable!("rposition found a MergeBegin");
                };
                for (lsn, r) in &records[begin + 1..c] {
                    if let WalRecord::PageImage { page_id, payload } = r {
                        pages.write_page(*page_id, *lsn, payload)?;
                        redone_pages += 1;
                    }
                }
                pages.set_meta(PageMeta {
                    page_size: meta.page_size,
                    data_len,
                    n_pages,
                    generation,
                    checkpoint_lsn: commit_lsn,
                })?;
                pages.sync()?;
                outcome = MergeOutcome::Replayed;
            }
        }
        if last_begin.is_some() && last_begin > last_commit {
            // The most recent merge never committed: the pre-merge
            // generation stands and its partial log is dead weight.
            outcome = MergeOutcome::RolledBack;
        }

        // Acknowledged inserts not covered by a committed merge: everything
        // after the last commit record (earlier inserts were merge input).
        let replay_from = last_commit.map_or(0, |c| c + 1);
        let inserts: Vec<(Vec<u8>, u32, u32)> = records[replay_from..]
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Insert { fp, id, tc } => Some((fp.clone(), *id, *tc)),
                _ => None,
            })
            .collect();

        if outcome == MergeOutcome::Replayed && inserts.is_empty() {
            // The redone merge is durable and nothing is pending, so the
            // interrupted merge's final step — the checkpoint — can run.
            wal.checkpoint()?;
        }

        Self::assemble(
            Arc::new(pages),
            wal,
            opts,
            inserts,
            RecoveryReport {
                outcome,
                replayed_inserts: 0,
                redone_pages,
            },
        )
    }

    fn assemble(
        pages: Arc<DynPages>,
        wal: Wal<DynStorage>,
        opts: DurableOptions,
        inserts: Vec<(Vec<u8>, u32, u32)>,
        mut recovery: RecoveryReport,
    ) -> Result<DurableIndex, IndexError> {
        let disk = DiskIndex::open_storage(Box::new(DataPages::new(Arc::clone(&pages))))?;
        let curve = disk.curve().clone();
        let mut mem = DynamicIndex::empty(curve.clone(), 1.0);
        let mut pending = RecordBatch::new(curve.dims());
        recovery.replayed_inserts = inserts.len();
        for (fp, id, tc) in &inserts {
            mem.insert(fp, *id, *tc);
            pending.push(fp, *id, *tc);
        }
        Ok(DurableIndex {
            pages,
            wal,
            disk,
            mem,
            pending,
            opts,
            curve,
            recovery,
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

    /// Merges the overlay into the on-disk index via the WAL redo
    /// protocol. Crash-safe at every byte: the commit point is the fsync
    /// of the `MergeCommit` record — before it the merge rolls back on
    /// reopen, after it the merge is redone from the logged page images.
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
        let bytes = DiskIndex::encode_to_vec(&merged, self.opts.write_opts)?;
        drop(merged);
        let cap = self.pages.payload_capacity();
        let meta = self.pages.meta();
        let generation = meta.generation + 1;
        let n_pages = bytes.len().div_ceil(cap) as u64;

        // Log the whole merge, then fsync: the commit point.
        self.wal.append(&WalRecord::MergeBegin {
            generation,
            n_pages,
            data_len: bytes.len() as u64,
        })?;
        let mut image_lsns = Vec::with_capacity(n_pages as usize);
        for (i, chunk) in bytes.chunks(cap).enumerate() {
            let lsn = self.wal.append(&WalRecord::PageImage {
                page_id: i as u64 + 1,
                payload: chunk.to_vec(),
            })?;
            image_lsns.push(lsn);
        }
        let commit_lsn = self.wal.append(&WalRecord::MergeCommit { generation })?;
        self.wal.sync()?;

        // Apply: page writes, then the meta page, then fsync.
        for (i, chunk) in bytes.chunks(cap).enumerate() {
            self.pages.write_page(i as u64 + 1, image_lsns[i], chunk)?;
        }
        let data_len = bytes.len() as u64;
        drop((bytes, image_lsns));
        self.pages.set_meta(PageMeta {
            page_size: meta.page_size,
            data_len,
            n_pages,
            generation,
            checkpoint_lsn: commit_lsn,
        })?;
        self.pages.sync()?;

        // The merge is durable and applied: swap the reader over the new
        // generation and retire the log.
        self.disk = DiskIndex::open_storage(Box::new(DataPages::new(Arc::clone(&self.pages))))?;
        self.wal.checkpoint()?;
        self.curve = self.disk.curve().clone();
        self.mem = DynamicIndex::empty(self.curve.clone(), 1.0);
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

    /// Durable merges completed by this handle (recovery redo excluded).
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

    /// Current page-store metadata (generation, page counts, LSNs).
    pub fn page_meta(&self) -> PageMeta {
        self.pages.meta()
    }

    /// A point-in-time snapshot of the whole engine's observable state —
    /// what the flight recorder stamps into incident dumps.
    pub fn engine_state(&self) -> EngineState {
        let meta = self.pages.meta();
        EngineState {
            generation: meta.generation,
            checkpoint_lsn: meta.checkpoint_lsn,
            n_pages: meta.n_pages,
            data_len: meta.data_len,
            page_size: meta.page_size,
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
    /// Pager generation (bumped per applied merge).
    pub generation: u64,
    /// Durable checkpoint LSN from the meta page.
    pub checkpoint_lsn: u64,
    /// Data pages in the paged file.
    pub n_pages: u64,
    /// Logical bytes of the serialized index stream.
    pub data_len: u64,
    /// Page size of the file.
    pub page_size: u32,
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
    use crate::storage::{MemStorage, SharedMemStorage};

    fn curve() -> HilbertCurve {
        HilbertCurve::new(4, 8).unwrap()
    }

    fn fp(seed: u32) -> Vec<u8> {
        (0..4).map(|i| ((seed * 37 + i * 11) % 16) as u8).collect()
    }

    fn opts_small() -> DurableOptions {
        DurableOptions {
            page_size: 256,
            ..DurableOptions::default()
        }
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

        // Merged, and again once reopened, the pages answer exactly as a flat
        // file of the same records does.
        idx.merge().unwrap();
        let mut all = RecordBatch::new(4);
        for i in 0..15 {
            all.push(&fp(i), i, i);
        }
        let flat_index = S3Index::build_on(idx.curve().clone(), all);
        let bytes = DiskIndex::encode_to_vec(&flat_index, opts_small().write_opts).unwrap();
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
}
