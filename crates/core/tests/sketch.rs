//! Exact-safety properties of the per-section sketch prefilter.
//!
//! The sketch is allowed exactly one effect: skipping section loads that
//! provably hold no candidate for any query in the batch. These tests pin
//! that contract from every side: answers with a sketch attached are
//! bit-identical to answers without one across random workloads (matches
//! AND per-query scanned-entry counts, so a skipped section can never have
//! contributed records); the skips actually fire (the property is not
//! vacuous); a sketch built for another index is refused; and an exhausted
//! probe budget always loads. Everything runs in memory: the sketch is
//! built from the opened index and attached, as the frozen benchmark does.

use proptest::prelude::*;
use s3_core::pseudo_disk::{DiskIndex, WriteOpts};
use s3_core::{
    IsotropicNormal, MemStorage, RecordBatch, S3Index, Sketch, SketchParams, StatQueryOpts,
};
use s3_hilbert::HilbertCurve;
use std::sync::{Mutex, MutexGuard, OnceLock};

const DIMS: usize = 6;
const N: usize = 400;

fn opts() -> WriteOpts {
    WriteOpts {
        table_depth: 8,
        block_size: 128,
    }
}

/// A sparse uniform corpus: records spread over the whole space, so most
/// table slots hold a few records but most sketch cells stay empty — the
/// regime where the sketch can prove section loads unnecessary.
fn build_index(seed: u64) -> S3Index {
    let mut s = seed | 1;
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

/// Serialises the tests that consult a sketch, so the process-wide
/// `sketch.probes` counter moves only for the batch a test measures.
fn consulting() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Opens serialized index bytes from memory.
fn open(bytes: &[u8]) -> DiskIndex {
    DiskIndex::open_storage(Box::new(MemStorage::new(bytes.to_vec()))).unwrap()
}

/// The fixture: index, its serialized bytes, and the default sketch built
/// from the opened bytes.
fn fixture() -> &'static (S3Index, Vec<u8>, Sketch) {
    static FIX: OnceLock<(S3Index, Vec<u8>, Sketch)> = OnceLock::new();
    FIX.get_or_init(|| {
        let index = build_index(0x5EED_CAFE);
        let bytes = DiskIndex::encode_to_vec(&index, opts()).unwrap();
        let sketch = open(&bytes).build_sketch(SketchParams::default()).unwrap();
        (index, bytes, sketch)
    })
}

/// Opens the fixture from memory, optionally attaching its sketch.
fn open_mem(with_sketch: bool) -> DiskIndex {
    let (_, bytes, sketch) = fixture();
    let mut disk = open(bytes);
    if with_sketch {
        assert!(
            disk.attach_sketch(sketch.clone()),
            "fixture sketch must attach"
        );
    }
    disk
}

/// Query probes: mildly distorted copies of stored fingerprints plus a few
/// far-off-cluster probes (those exercise full-section skips).
fn probes(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let (index, _, _) = fixture();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                // Off in empty space: every block it selects may be provably
                // vacant.
                (0..DIMS).map(|_| 220 + (next() % 30) as u8).collect()
            } else {
                let base = index.records().fingerprint((next() as usize) % N);
                base.iter()
                    .map(|&b| b.wrapping_add((next() % 7) as u8))
                    .collect()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Answers with and without the sketch are bit-identical on any workload:
    /// same matches per query AND same per-query entries scanned. The
    /// latter is the "skipped sections truly hold zero candidates"
    /// property — had a skipped section held even one candidate record,
    /// the sketch-off run would have scanned it and the counts would
    /// diverge.
    #[test]
    fn sketch_on_and_off_answer_identically(
        seed in any::<u64>(),
        alpha in 0.5f64..0.99,
        mem_kb in 1u64..32,
    ) {
        let queries = probes(seed, 16);
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let model = IsotropicNormal::new(DIMS, 10.0);
        let qopts = StatQueryOpts::new(alpha, 12);

        let _consulting = consulting();
        let with = open_mem(true)
            .stat_query_batch(&qrefs, &model, &qopts, mem_kb << 10)
            .unwrap();
        let without = open_mem(false)
            .stat_query_batch(&qrefs, &model, &qopts, mem_kb << 10)
            .unwrap();

        prop_assert_eq!(&with.matches, &without.matches);
        for qi in 0..qrefs.len() {
            prop_assert_eq!(
                with.stats[qi].entries_scanned,
                without.stats[qi].entries_scanned,
                "query {} scanned different records with the sketch on", qi
            );
            prop_assert_eq!(without.stats[qi].sketch_skipped, 0);
        }
        prop_assert_eq!(without.timing.sketch_skips, 0);
        prop_assert!(!with.timing.degraded);
        // Sections the sketch skipped never count as degradation.
        prop_assert_eq!(with.timing.sections_skipped, without.timing.sections_skipped);
    }
}

/// The skip path actually fires on the fixture workload — the identity
/// property above is not vacuous — and skips reduce loaded sections
/// one-for-one.
#[test]
fn sketch_skips_fire_and_reduce_section_loads() {
    let queries = probes(0xFEED, 16);
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let model = IsotropicNormal::new(DIMS, 10.0);
    let qopts = StatQueryOpts::new(0.9, 12);

    // A small memory budget forces many sections, giving skips room to fire:
    // 22 records' worth.
    let budget = open_mem(false).data_bytes() / N as u64 * 22;
    let _consulting = consulting();
    let with = open_mem(true)
        .stat_query_batch(&qrefs, &model, &qopts, budget)
        .unwrap();
    let without = open_mem(false)
        .stat_query_batch(&qrefs, &model, &qopts, budget)
        .unwrap();
    assert!(
        with.timing.sketch_skips > 0,
        "fixture workload must exercise the skip path"
    );
    assert_eq!(
        with.timing.sections_loaded + with.timing.sketch_skips,
        without.timing.sections_loaded,
        "every skip must replace exactly one section load"
    );
    assert!(with.timing.bytes_loaded < without.timing.bytes_loaded);
    assert!(with.stats.iter().any(|st| st.sketch_skipped > 0));
    assert_eq!(with.matches, without.matches);
}

/// A sketch-less index consults nothing and skips nothing.
#[test]
fn no_sketch_attached_means_no_skips() {
    let queries = probes(0xBEEF, 8);
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let model = IsotropicNormal::new(DIMS, 10.0);
    let batch = open_mem(false)
        .stat_query_batch(&qrefs, &model, &StatQueryOpts::new(0.9, 12), 32 << 10)
        .unwrap();
    assert_eq!(batch.timing.sketch_skips, 0);
}

/// A stale sketch — built from a different index generation — is refused
/// by the meta-CRC binding, so it can never skip sections of an index it
/// does not describe.
#[test]
fn stale_sketch_is_refused_by_meta_crc() {
    let other = DiskIndex::encode_to_vec(&build_index(0x0DD_5EED), opts()).unwrap();
    let stale = open(&other).build_sketch(SketchParams::default()).unwrap();

    let mut disk = open_mem(false);
    assert!(
        !disk.attach_sketch(stale),
        "a sketch of another index must be refused"
    );
    assert!(disk.sketch().is_none());
}

/// A range decomposition that blows past the 4096-probe consult budget
/// must ALWAYS fall back to loading the section — never skip it — and the
/// `sketch.probes` counter stops at the budget for every consult instead
/// of walking the whole span.
///
/// The workload makes the budget unreachable on purpose: a deep sketch
/// (4096 cells per table slot), a huge memory budget (one section spanning
/// the whole file, hundreds of slots) and very broad queries (low filter
/// depth, near-1 mass target) produce `range ∩ section` cell spans orders
/// of magnitude past the budget.
#[test]
fn probe_budget_exhaustion_always_loads() {
    use s3_core::pseudo_disk::SKETCH_PROBE_BUDGET;
    use s3_core::CoreMetrics;

    let (_, bytes, _) = fixture();
    let mut with_sketch = open(bytes);
    let deep = with_sketch
        .build_sketch(SketchParams {
            bits_per_entry: 8,
            depth: 20, // 12 bits below the table: 4096 cells per slot
        })
        .unwrap();
    assert!(with_sketch.attach_sketch(deep), "deep sketch must attach");
    let without_sketch = open(bytes);

    let model = IsotropicNormal::new(DIMS, 60.0);
    let opts = StatQueryOpts::new(0.999, 4); // depth-4 blocks: 16 slots each
    let q = probes(0xB1D6E7, 6);
    let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
    let big_budget = 1u64 << 20; // whole file in one section

    let m = CoreMetrics::get();
    let consulting = consulting();
    let probes0 = m.sketch_probes.get();
    let on = with_sketch
        .stat_query_batch(&queries, &model, &opts, big_budget)
        .unwrap();
    let probes = m.sketch_probes.get() - probes0;
    drop(consulting);
    // With a sketch attached, every section the batch reaches is consulted:
    // it is then either skipped or loaded.
    let consults = (on.timing.sketch_skips + on.timing.sections_loaded) as u64;

    let off = without_sketch
        .stat_query_batch(&queries, &model, &opts, big_budget)
        .unwrap();

    // Fallback, not skip: the budget-exhausted consult loads the section,
    // so the sketch-on run does exactly the sketch-off run's work.
    assert_eq!(on.timing.sketch_skips, 0, "budget exhaustion must not skip");
    assert_eq!(
        on.timing.sections_loaded, off.timing.sections_loaded,
        "every consulted section must still be loaded"
    );
    assert_eq!(on.matches, off.matches, "answers must stay bit-identical");
    assert!(
        on.stats.iter().any(|s| s.entries_scanned > 0),
        "the broad workload must actually scan"
    );
    // An exhausted consult may stop before its first probe, so `probes`
    // can be 0; what must hold is the bound below over every consult.
    assert!(consults > 0, "the batch must reach a section");
    // Every consult stops probing at the budget.
    assert!(
        probes <= SKETCH_PROBE_BUDGET * consults,
        "a consult probed past SKETCH_PROBE_BUDGET"
    );
}
