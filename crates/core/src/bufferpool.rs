//! Buffer pool: bounded page cache with LRU-K eviction and pin/unpin.
//!
//! No product path reads through the pool. A pseudo-disk batch (§IV-B,
//! eq. 5) streams each section once, and the section budget already bounds
//! what is resident, so a page cache only adds memory and a lock on top:
//! queries read [`Storage`] directly and the durable engine reads its pager
//! ([`crate::pager::DataPages`]). The pool, [`PooledStorage`] and
//! [`BlockSource`] stay only because the `disk_batch` workload of the
//! frozen benchmark (`benchmark/`) builds them for its pooled comparator;
//! they go with the benchmark revision that retires that comparator.
//!
//! At most `capacity` frames are resident. A page request pins its frame —
//! pinned frames cannot be evicted — and the returned [`PinnedPage`] guard
//! unpins on drop, so the pin discipline is enforced by ownership, not
//! convention.
//!
//! Eviction is LRU-K with K = 2 (the crio.rs / O'Neil design): the victim
//! is the unpinned frame whose *second-most-recent* access is oldest, and
//! frames touched only once are preferred over any frame with a full
//! history. Compared to plain LRU this resists sequential flooding — one
//! scan through a large index cannot evict the hot upper pages that every
//! query touches twice or more.
//!
//! Effectiveness is observable: `bufferpool.{hits,misses,evictions}`
//! counters feed the `s3-obs` registry.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::error::IndexError;
use crate::metrics::CoreMetrics;
use crate::storage::Storage;

/// Number of access timestamps LRU-K keeps per frame.
const LRU_K: usize = 2;

/// Where the pool's pages come from: a logical byte stream chopped into
/// fixed-size pages (the last one may be short).
pub trait PageSource: fmt::Debug + Send + Sync {
    /// Payload bytes of every page but possibly the last.
    fn page_size(&self) -> usize;

    /// Total logical bytes across all pages.
    fn logical_len(&self) -> u64;

    /// Loads page `page_no` (0-based) in full.
    fn load(&self, page_no: u64) -> Result<Vec<u8>, IndexError>;
}

struct Frame {
    data: Arc<Vec<u8>>,
    pins: u64,
    /// Access ticks, most recent first; 0 = never. `history[LRU_K-1]` is
    /// the K-th most recent access — the LRU-K eviction key.
    history: [u64; LRU_K],
}

struct PoolState {
    frames: HashMap<u64, Frame>,
    tick: u64,
    pinned: u64,
}

/// Bounded page cache over a [`PageSource`].
pub struct BufferPool<P> {
    source: P,
    capacity: usize,
    state: Mutex<PoolState>,
}

impl<P: fmt::Debug> fmt::Debug for BufferPool<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("source", &self.source)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl<P: PageSource> BufferPool<P> {
    /// A pool holding at most `capacity` resident pages (min 1).
    pub fn new(source: P, capacity: usize) -> BufferPool<P> {
        BufferPool {
            source,
            capacity: capacity.max(1),
            state: Mutex::new(PoolState {
                frames: HashMap::new(),
                tick: 0,
                pinned: 0,
            }),
        }
    }

    /// The wrapped source.
    pub fn source(&self) -> &P {
        &self.source
    }

    /// Maximum resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.lock().frames.len()
    }

    /// Returns page `page_no`, pinned. The pin is released when the guard
    /// drops. Loads through the source on a miss, evicting the LRU-K
    /// victim if the pool is full; fails if every frame is pinned.
    pub fn get(&self, page_no: u64) -> Result<PinnedPage<'_>, IndexError> {
        let m = CoreMetrics::get();
        let mut s = self.lock();
        s.tick += 1;
        let tick = s.tick;
        if let Some(frame) = s.frames.get_mut(&page_no) {
            frame.history.rotate_right(1);
            frame.history[0] = tick;
            frame.pins += 1;
            let data = Arc::clone(&frame.data);
            s.pinned += 1;
            m.bufferpool_hits.inc();
            return Ok(PinnedPage {
                data,
                state: &self.state,
                page_no,
            });
        }
        m.bufferpool_misses.inc();
        if s.frames.len() >= self.capacity {
            let victim = s
                .frames
                .iter()
                .filter(|(_, f)| f.pins == 0)
                // LRU-K victim: no K-th access beats any K-th access
                // (history[K-1] = 0 sorts first), then oldest wins; the
                // last access breaks remaining ties.
                .min_by_key(|(_, f)| (f.history[LRU_K - 1], f.history[0]))
                .map(|(&no, _)| no);
            match victim {
                Some(no) => {
                    s.frames.remove(&no);
                    m.bufferpool_evictions.inc();
                }
                None => {
                    return Err(IndexError::Io(io::Error::other(format!(
                        "buffer pool exhausted: all {} frames pinned",
                        self.capacity
                    ))));
                }
            }
        }
        // Load with the pool lock held: concurrent requests for different
        // pages serialize here, which also guarantees a page is never
        // loaded twice concurrently. Section-sized reads dominate load
        // time anyway, exactly as the single-device model assumes.
        let data = Arc::new(self.source.load(page_no)?);
        let mut history = [0u64; LRU_K];
        history[0] = tick;
        s.frames.insert(
            page_no,
            Frame {
                data: Arc::clone(&data),
                pins: 1,
                history,
            },
        );
        s.pinned += 1;
        Ok(PinnedPage {
            data,
            state: &self.state,
            page_no,
        })
    }

    /// Drops every unpinned frame, for when the underlying pages are
    /// replaced. Fails if a pinned frame would be orphaned (the caller must
    /// not invalidate mid-read).
    pub fn invalidate(&self) -> io::Result<()> {
        let mut s = self.lock();
        if s.pinned > 0 {
            return Err(io::Error::other(format!(
                "cannot invalidate: {} pages still pinned",
                s.pinned
            )));
        }
        s.frames.clear();
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// RAII pin on a resident page; derefs to the payload bytes. The frame is
/// unpinned (and becomes evictable again) when the guard drops.
pub struct PinnedPage<'a> {
    data: Arc<Vec<u8>>,
    state: &'a Mutex<PoolState>,
    page_no: u64,
}

impl PinnedPage<'_> {
    /// The page number this guard pins.
    pub fn page_no(&self) -> u64 {
        self.page_no
    }
}

impl Deref for PinnedPage<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PinnedPage<'_> {
    fn drop(&mut self) {
        let mut s = match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(frame) = s.frames.get_mut(&self.page_no) {
            frame.pins = frame.pins.saturating_sub(1);
        }
        s.pinned = s.pinned.saturating_sub(1);
    }
}

/// [`PageSource`] over any flat [`Storage`]: the byte stream is the file
/// itself, chopped into `block`-byte pages. The bytes delivered are
/// identical to direct reads, so query results through a pool over it are
/// bit-identical by construction.
pub struct BlockSource {
    storage: Box<dyn Storage>,
    block: usize,
    len: u64,
}

impl fmt::Debug for BlockSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockSource")
            .field("block", &self.block)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl BlockSource {
    /// Chops `storage` into `block`-byte pages (min 64; the storage length
    /// is snapshotted at construction — flat index files are immutable).
    pub fn new(storage: Box<dyn Storage>, block: usize) -> io::Result<BlockSource> {
        let len = storage.len()?;
        Ok(BlockSource {
            storage,
            block: block.max(64),
            len,
        })
    }
}

impl PageSource for BlockSource {
    fn page_size(&self) -> usize {
        self.block
    }

    fn logical_len(&self) -> u64 {
        self.len
    }

    fn load(&self, page_no: u64) -> Result<Vec<u8>, IndexError> {
        let start = page_no * self.block as u64;
        if start >= self.len {
            return Err(IndexError::Format {
                detail: format!("block {page_no} beyond storage"),
            });
        }
        let take = (self.block as u64).min(self.len - start) as usize;
        let mut buf = vec![0u8; take];
        self.storage.read_at(start, &mut buf)?;
        Ok(buf)
    }
}

/// [`Storage`] adapter over a shared [`BufferPool`]: every positioned read
/// resolves through pinned pages, so the pool — not the read pattern —
/// bounds resident memory. Handing this to
/// [`crate::pseudo_disk::DiskIndex::open_storage`] gives the existing
/// reader a bounded cache without changing a line of it.
pub struct PooledStorage<P: PageSource> {
    pool: Arc<BufferPool<P>>,
}

impl<P: PageSource> fmt::Debug for PooledStorage<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledStorage")
            .field("capacity", &self.pool.capacity())
            .finish_non_exhaustive()
    }
}

impl<P: PageSource> PooledStorage<P> {
    /// Reads through `pool`.
    pub fn new(pool: Arc<BufferPool<P>>) -> PooledStorage<P> {
        PooledStorage { pool }
    }

    /// The shared pool (for stats or invalidation).
    pub fn pool(&self) -> &Arc<BufferPool<P>> {
        &self.pool
    }
}

impl<P: PageSource + 'static> Storage for PooledStorage<P> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let len = self.pool.source().logical_len();
        let end = offset
            .checked_add(buf.len() as u64)
            .filter(|&e| e <= len)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of storage")
            })?;
        let ps = self.pool.source().page_size() as u64;
        let mut filled = 0usize;
        let mut pos = offset;
        while pos < end {
            let page_no = pos / ps;
            let in_page = (pos % ps) as usize;
            let page = self.pool.get(page_no).map_err(|e| match e {
                IndexError::Io(io) => io,
                other => io::Error::other(other.to_string()),
            })?;
            let avail = page.len().saturating_sub(in_page);
            let take = avail.min(buf.len() - filled);
            if take == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("page {page_no} shorter than the logical length implies"),
                ));
            }
            buf[filled..filled + take].copy_from_slice(&page[in_page..in_page + take]);
            filled += take;
            pos += take as u64;
        }
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.pool.source().logical_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pseudo_disk::{DiskIndex, WriteOpts};
    use crate::storage::MemStorage;
    use crate::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
    use s3_hilbert::HilbertCurve;

    fn flat(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    fn pool_over(bytes: Vec<u8>, block: usize, cap: usize) -> Arc<BufferPool<BlockSource>> {
        let src = BlockSource::new(Box::new(MemStorage::new(bytes)), block).unwrap();
        Arc::new(BufferPool::new(src, cap))
    }

    #[test]
    fn pooled_reads_match_flat_reads() {
        let bytes = flat(10_000);
        let pool = pool_over(bytes.clone(), 256, 4);
        let s = PooledStorage::new(pool);
        assert_eq!(s.len().unwrap(), 10_000);
        for (off, n) in [(0u64, 10usize), (250, 300), (9_990, 10), (4_000, 4_096)] {
            let mut buf = vec![0u8; n];
            s.read_at(off, &mut buf).unwrap();
            assert_eq!(buf, bytes[off as usize..off as usize + n], "at {off}+{n}");
        }
        let mut beyond = [0u8; 8];
        assert!(s.read_at(9_995, &mut beyond).is_err());
    }

    #[test]
    fn capacity_bounds_resident_pages() {
        let pool = pool_over(flat(64 * 100), 64, 8);
        let s = PooledStorage::new(Arc::clone(&pool));
        // Sweep the whole file: 100 pages through an 8-frame pool.
        let mut buf = [0u8; 64];
        for p in 0..100u64 {
            s.read_at(p * 64, &mut buf).unwrap();
        }
        assert!(
            pool.resident() <= 8,
            "resident {} > capacity",
            pool.resident()
        );

        // The same bound under a query batch: an index many times the size
        // of the pool answers exactly like a flat open of the same bytes.
        let mut batch = RecordBatch::new(4);
        let mut x = 0xB00C_9E1Du64;
        for i in 0..6000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            batch.push(&x.to_le_bytes()[..4], i % 97, i);
        }
        let index = S3Index::build(HilbertCurve::new(4, 8).unwrap(), batch);
        let opts = WriteOpts {
            table_depth: 10,
            block_size: 1024,
        };
        let bytes = DiskIndex::encode_to_vec(&index, opts).unwrap();
        let pool = pool_over(bytes.clone(), 1024, 8);
        assert!(bytes.len() > 8 * 8 * 1024, "index must dwarf the pool");
        let pooled =
            DiskIndex::open_storage(Box::new(PooledStorage::new(Arc::clone(&pool)))).unwrap();
        let flat = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
        let queries: Vec<&[u8]> = (0..24)
            .map(|i| index.records().fingerprint(i * 250))
            .collect();
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);
        let got = pooled
            .stat_query_batch(&queries, &model, &opts, 16 << 10)
            .unwrap();
        let want = flat
            .stat_query_batch(&queries, &model, &opts, 16 << 10)
            .unwrap();
        assert!(got.sections > 1 && want.matches.iter().any(|m| !m.is_empty()));
        assert_eq!(got.matches, want.matches);
        assert!(
            pool.resident() <= 8,
            "resident {} > capacity",
            pool.resident()
        );
    }

    #[test]
    fn lru_k_prefers_single_touch_victims() {
        let pool = pool_over(flat(64 * 10), 64, 3);
        // Touch pages 0 and 1 twice each (full history), page 2 once.
        for p in [0u64, 1, 0, 1, 2] {
            pool.get(p).unwrap();
        }
        assert_eq!(pool.resident(), 3);
        // Next miss must evict page 2 (only single-touch frame), not the
        // plain-LRU victim (page 0, least recently used among the three).
        pool.get(3).unwrap();
        let s = pool.lock();
        assert!(s.frames.contains_key(&0), "LRU-K must keep twice-touched 0");
        assert!(s.frames.contains_key(&1));
        assert!(
            !s.frames.contains_key(&2),
            "single-touch page evicted first"
        );
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let pool = pool_over(flat(64 * 10), 64, 2);
        let g0 = pool.get(0).unwrap();
        let g1 = pool.get(1).unwrap();
        // Pool full and fully pinned: a third page cannot enter.
        assert!(pool.get(2).is_err());
        drop(g1);
        // One frame evictable now.
        let g2 = pool.get(2).unwrap();
        assert_eq!(g2.page_no(), 2);
        assert_eq!(&g0[..4], &flat(64)[..4], "pinned frame stayed intact");
    }

    #[test]
    fn invalidate_refuses_while_pinned_then_clears() {
        let pool = pool_over(flat(64 * 4), 64, 4);
        let g = pool.get(0).unwrap();
        assert!(pool.invalidate().is_err());
        drop(g);
        pool.invalidate().unwrap();
        assert_eq!(pool.resident(), 0);
    }
}
