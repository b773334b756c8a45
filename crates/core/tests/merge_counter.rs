//! `dynamic.merge.ok` counts the merges a caller sees: a `DynamicIndex`'s
//! and a `DurableIndex`'s, never the folds of the in-memory overlay inside
//! a durable index. The counter is process-wide, so this binary holds one
//! test and nothing else moves it.

use s3_core::{CoreMetrics, DurableIndex, DurableOptions, SharedMemStorage, WritableStorage};
use s3_hilbert::HilbertCurve;

fn fp(seed: u32) -> Vec<u8> {
    (0..4).map(|i| ((seed * 37 + i * 11) % 16) as u8).collect()
}

#[test]
fn durable_index_counts_its_merges_not_its_overlay_folds() {
    let storage = || -> Box<dyn WritableStorage> { Box::new(SharedMemStorage::new()) };
    let opts = DurableOptions {
        merge_fraction: 1.0,
        ..DurableOptions::default()
    };
    let curve = HilbertCurve::new(4, 8).unwrap();
    let mut idx = DurableIndex::create(storage(), storage(), curve, opts).unwrap();
    let ok = || CoreMetrics::get().merge_ok.get();
    let start = ok();
    // 512 records on disk in two merges of 256 (at most 256 unmerged
    // inserts never trigger a merge of either kind).
    for i in 0..512 {
        idx.insert(&fp(i), i, i).unwrap();
        if i % 256 == 255 {
            idx.merge().unwrap();
        }
    }
    assert_eq!((idx.merges(), ok() - start), (2, 2));

    // Past 256 unmerged inserts the overlay folds in memory; the durable
    // merge waits for more than 512 (the on-disk count). Only the merge a
    // caller sees counts.
    for i in 512..812 {
        idx.insert(&fp(i), i, i).unwrap();
    }
    assert_eq!((idx.merges(), idx.pending_len()), (2, 300));
    assert_eq!(ok() - start, 2, "an overlay fold counted as a merge");
    idx.merge().unwrap();
    assert_eq!((idx.merges(), ok() - start), (3, 3));
}
