//! Corruption and fault-injection properties of the pseudo-disk layer.
//!
//! The S3IDX004 format is checksummed end to end (header+table, data
//! blocks, CRC table), so *any* truncation and *any* single bit flip of a
//! saved index must surface as a clean [`s3_core::IndexError`] — either at
//! open, at `verify()`, or at query time — never as a panic and never as
//! silently wrong answers. A flip is never a raw I/O error either: header
//! fields are checked against the file size before they size a read. `FaultyStorage` then exercises the runtime
//! paths: transient faults are retried away; a permanently dead region
//! degrades the batch with honest accounting.

use proptest::prelude::*;
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy, WriteOpts};
use s3_core::{
    FaultPlan, FaultyStorage, IndexError, IsotropicNormal, MemStorage, RecordBatch, S3Index,
    StatQueryOpts,
};
use s3_hilbert::HilbertCurve;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const DIMS: usize = 6;
const N: usize = 600;
const TABLE_DEPTH: u32 = 8;
const BLOCK_SIZE: u32 = 128;

fn opts() -> WriteOpts {
    WriteOpts {
        table_depth: TABLE_DEPTH,
        block_size: BLOCK_SIZE,
    }
}

fn build_index() -> S3Index {
    let mut s = 0x5EED_0001u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut batch = RecordBatch::new(DIMS);
    for i in 0..N {
        let fp: Vec<u8> = (0..DIMS).map(|_| (next() >> 24) as u8).collect();
        batch.push(&fp, (i % 7) as u32, i as u32);
    }
    S3Index::build(HilbertCurve::new(DIMS, 8).unwrap(), batch)
}

/// The index and its serialized S3IDX004 bytes, built once.
fn fixture() -> &'static (S3Index, Vec<u8>) {
    static FIX: OnceLock<(S3Index, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let index = build_index();
        let bytes = DiskIndex::encode_to_vec(&index, opts()).unwrap();
        (index, bytes)
    })
}

fn open_mem(bytes: Vec<u8>) -> Result<DiskIndex, IndexError> {
    DiskIndex::open_storage(Box::new(MemStorage::new(bytes)))
}

/// No-backoff retry policy so fault tests run fast.
fn fast_retry(max_retries: u32, strict: bool) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        backoff: Duration::ZERO,
        strict,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A file cut at any byte offset is rejected at open.
    #[test]
    fn truncation_at_any_offset_is_rejected(frac in 0.0f64..1.0) {
        let (_, bytes) = fixture();
        let cut = (frac * bytes.len() as f64) as usize;
        prop_assert!(cut < bytes.len());
        let res = open_mem(bytes[..cut].to_vec());
        prop_assert!(res.is_err(), "truncation to {cut}/{} bytes must not open", bytes.len());
    }

    /// Any single bit flip is caught by a checksum or a size check: either
    /// the file refuses to open, or the full-scan `verify()` pinpoints a
    /// corrupt block — as a typed error, never a raw read past the end.
    #[test]
    fn any_single_bit_flip_is_detected(frac in 0.0f64..1.0, bit in 0u8..8) {
        let (_, bytes) = fixture();
        let byte = ((frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 1 << bit;
        match open_mem(corrupt).and_then(|disk| disk.verify()) {
            Err(IndexError::Io(e)) => {
                prop_assert!(false, "flip at byte {byte} bit {bit} surfaced as raw io: {e}")
            }
            Err(_) => {}
            Ok(()) => prop_assert!(false, "flip at byte {byte} bit {bit} opened AND verified clean"),
        }
    }
}

/// A table depth raised by one bit flip (8 → 24) declares a 128 MiB table
/// the file cannot hold: refused as a format error before anything is
/// allocated or read.
#[test]
fn an_inflated_table_depth_is_refused_before_it_is_read() {
    let (_, bytes) = fixture();
    let mut corrupt = bytes.clone();
    corrupt[24] ^= 1 << 4; // table_depth u32 at bytes 24..28
    let err = open_mem(corrupt).err();
    assert!(matches!(err, Some(IndexError::Format { .. })), "{err:?}");
}

/// Clean bytes round-trip through MemStorage and answer exactly like the
/// in-memory index (the baseline the corruption properties lean on).
#[test]
fn clean_bytes_answer_exactly() {
    let (index, bytes) = fixture();
    let disk = open_mem(bytes.clone()).unwrap();
    disk.verify().unwrap();
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let queries: Vec<Vec<u8>> = (0..40)
        .map(|i| index.records().fingerprint(i * 13).to_vec())
        .collect();
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let batch = disk
        .stat_query_batch(&qrefs, &model, &opts, 1 << 20)
        .unwrap();
    for (qi, q) in qrefs.iter().enumerate() {
        let mem = index.stat_query(q, &model, &opts);
        assert_eq!(batch.matches[qi], mem.matches, "query {qi} diverges");
    }
    assert!(!batch.timing.degraded);
    assert_eq!(batch.timing.sections_skipped, 0);
}

/// Transient faults (short reads, transient errors) are retried to the
/// exact same answer the clean storage gives.
#[test]
fn transient_faults_retry_to_clean_answer() {
    let (index, bytes) = fixture();
    let clean = open_mem(bytes.clone()).unwrap();
    let faulty = DiskIndex::open_storage(Box::new(FaultyStorage::new(
        MemStorage::new(bytes.clone()),
        FaultPlan {
            seed: 0xFA17,
            transient_error: 0.15,
            short_read: 0.1,
            skip_reads: 5, // let open's metadata reads through clean
            ..FaultPlan::default()
        },
    )))
    .unwrap()
    .with_retry_policy(fast_retry(8, false));

    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let queries: Vec<Vec<u8>> = (0..30)
        .map(|i| index.records().fingerprint(i * 17).to_vec())
        .collect();
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let want = clean
        .stat_query_batch(&qrefs, &model, &opts, 1 << 20)
        .unwrap();
    let got = faulty
        .stat_query_batch(&qrefs, &model, &opts, 1 << 20)
        .unwrap();
    assert_eq!(got.matches, want.matches);
    assert!(got.timing.retries > 0, "the schedule must actually fire");
    assert!(!got.timing.degraded);
}

/// A permanently dead storage region: the batch completes, the affected
/// queries are flagged, the clean queries still answer exactly, and strict
/// mode turns the same situation into a hard `SectionLost` error.
#[test]
fn dead_region_degrades_and_strict_mode_errors() {
    let (index, bytes) = fixture();
    // Kill the prefix column of records [300, 400): every section overlapping
    // those records fails permanently.
    // S3IDX004: header, axis bytes, table and meta CRC, then the prefix
    // column, 8 bytes a record.
    let data_off = 32 + DIMS as u64 + (((1u64 << TABLE_DEPTH) + 1) * 8) + 4;
    let dead = data_off + 300 * 8..data_off + 400 * 8;
    let plan = FaultPlan {
        seed: 0xDEAD,
        dead_range: Some(dead),
        skip_reads: 5,
        ..FaultPlan::default()
    };

    let mut queries: Vec<Vec<u8>> = (300..400)
        .step_by(20)
        .map(|i| index.records().fingerprint(i).to_vec())
        .collect();
    let n_dead_queries = queries.len();
    queries.extend(
        (0..100)
            .step_by(20)
            .map(|i| index.records().fingerprint(i).to_vec()),
    );
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);

    let clean = open_mem(bytes.clone()).unwrap();
    let want = clean
        .stat_query_batch(&qrefs, &model, &opts, 1 << 20)
        .unwrap();

    let faulty = Arc::new(FaultyStorage::new(
        MemStorage::new(bytes.clone()),
        plan.clone(),
    ));
    let degraded_disk = DiskIndex::open_storage(Box::new(Arc::clone(&faulty)))
        .unwrap()
        .with_retry_policy(fast_retry(2, false));
    let got = degraded_disk
        .stat_query_batch(&qrefs, &model, &opts, 1 << 20)
        .unwrap();
    assert!(got.timing.degraded, "dead region must degrade the batch");
    assert!(got.timing.sections_skipped > 0);
    for qi in 0..n_dead_queries {
        assert!(got.stats[qi].degraded, "query {qi} hit the dead region");
    }
    // Partial results: a degraded query may return a subset, never garbage.
    for qi in 0..qrefs.len() {
        for m in &got.matches[qi] {
            assert!(
                want.matches[qi].contains(m),
                "query {qi} invented match {m:?}"
            );
        }
        if !got.stats[qi].degraded {
            assert_eq!(
                got.matches[qi], want.matches[qi],
                "clean query {qi} diverges"
            );
        }
    }
    // Nothing remembers a failure past its batch: a second batch reads the
    // dead region again and answers exactly as the first.
    let dead_reads = faulty.stats().dead_reads;
    let again = degraded_disk
        .stat_query_batch(&qrefs, &model, &opts, 1 << 20)
        .unwrap();
    assert_eq!(again.matches, got.matches);
    assert_eq!(again.timing.sections_skipped, got.timing.sections_skipped);
    assert!(again.timing.degraded);
    for (st, first) in again.stats.iter().zip(&got.stats) {
        assert_eq!(st.degraded, first.degraded);
        assert_eq!(st.sections_skipped, first.sections_skipped);
    }
    assert!(
        faulty.stats().dead_reads > dead_reads,
        "the second batch must read storage again"
    );

    let strict_disk = DiskIndex::open_storage(Box::new(FaultyStorage::new(
        MemStorage::new(bytes.clone()),
        plan,
    )))
    .unwrap()
    .with_retry_policy(fast_retry(2, true));
    match strict_disk.stat_query_batch(&qrefs, &model, &opts, 1 << 20) {
        Err(IndexError::SectionLost { retries, .. }) => assert_eq!(retries, 2),
        other => panic!("strict mode must fail with SectionLost, got {other:?}"),
    }
}
