//! Exact hit/miss accounting of the buffer pool.
//!
//! `bufferpool.hits` / `bufferpool.misses` are process-global counters, so
//! an exact delta can only be asserted where no other test touches a pool
//! concurrently: this binary holds this one test and nothing else.

use s3_core::{BlockSource, BufferPool, CoreMetrics, MemStorage};

#[test]
fn hit_miss_accounting() {
    let bytes: Vec<u8> = (0..64 * 4).map(|i| (i % 251) as u8).collect();
    let source = BlockSource::new(Box::new(MemStorage::new(bytes)), 64).unwrap();
    let pool = BufferPool::new(source, 4);
    let m = CoreMetrics::get();
    let (h0, m0) = (m.bufferpool_hits.get(), m.bufferpool_misses.get());
    pool.get(0).unwrap();
    pool.get(0).unwrap();
    pool.get(1).unwrap();
    assert_eq!(m.bufferpool_hits.get() - h0, 1);
    assert_eq!(m.bufferpool_misses.get() - m0, 2);
}
