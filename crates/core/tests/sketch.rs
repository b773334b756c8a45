//! Exact-safety properties of the per-section sketch prefilter.
//!
//! The sketch is allowed exactly one effect: skipping section loads that
//! provably hold no candidate for any query in the batch. These tests pin
//! that contract from every side: sketch-on answers are bit-identical to
//! sketch-off answers across random workloads (matches AND per-query
//! scanned-entry counts, so a skipped section can never have contributed
//! records); the skips actually fire (the property is not vacuous); a
//! corrupt or stale sidecar degrades to "no sketch" (fail-open) and never
//! to a wrong skip; and the durable engine rebuilds its sketch across
//! merges and reopens.

use proptest::prelude::*;
use s3_core::pseudo_disk::{DiskIndex, WriteOpts};
use s3_core::{
    DurableIndex, DurableOptions, FaultPlan, FaultyStorage, IsotropicNormal, MemStorage,
    RecordBatch, S3Index, SharedMemStorage, Sketch, StatQueryOpts, Storage, WritableStorage,
};
use s3_hilbert::HilbertCurve;
use std::sync::OnceLock;

const DIMS: usize = 6;
const N: usize = 400;

fn opts(sketch_bits: u32) -> WriteOpts {
    WriteOpts {
        table_depth: 8,
        block_size: 128,
        sketch_bits,
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

/// The fixture: index, its serialized bytes, and its sidecar sketch bytes.
fn fixture() -> &'static (S3Index, Vec<u8>, Vec<u8>) {
    static FIX: OnceLock<(S3Index, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let index = build_index(0x5EED_CAFE);
        let path =
            std::env::temp_dir().join(format!("s3-sketch-fixture-{}.idx", std::process::id()));
        DiskIndex::write_with(&index, &path, opts(8)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let sketch_bytes = std::fs::read(Sketch::sidecar_path(&path)).unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(Sketch::sidecar_path(&path));
        (index, bytes, sketch_bytes)
    })
}

/// Opens the fixture from memory, optionally attaching its sketch.
fn open_mem(with_sketch: bool) -> DiskIndex {
    let (_, bytes, sketch_bytes) = fixture();
    let mut disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    if with_sketch {
        let sk = Sketch::decode(sketch_bytes).unwrap();
        assert!(disk.attach_sketch(sk), "fixture sketch must attach");
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

    /// Sketch-on and sketch-off answers are bit-identical on any workload:
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
        let mut off_opts = qopts;
        off_opts.sketch = false;

        let with = open_mem(true)
            .stat_query_batch(&qrefs, &model, &qopts, mem_kb << 10)
            .unwrap();
        let without = open_mem(true)
            .stat_query_batch(&qrefs, &model, &off_opts, mem_kb << 10)
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
    let mut off = qopts;
    off.sketch = false;

    // A small memory budget forces many sections, giving skips room to fire.
    let with = open_mem(true)
        .stat_query_batch(&qrefs, &model, &qopts, 1 << 10)
        .unwrap();
    let without = open_mem(true)
        .stat_query_batch(&qrefs, &model, &off, 1 << 10)
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

/// A sketch-less index ignores `sketch: true` silently (nothing to consult).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip in the sidecar is caught by its CRC frame: the
    /// sketch refuses to decode (fail-open, the caller continues without a
    /// prefilter). It can never attach corrupted and cause a wrong skip.
    #[test]
    fn corrupt_sidecar_fails_open(frac in 0.0f64..1.0, bit in 0u8..8) {
        let (_, _, sketch_bytes) = fixture();
        let byte = ((frac * sketch_bytes.len() as f64) as usize).min(sketch_bytes.len() - 1);
        let mut corrupt = sketch_bytes.clone();
        corrupt[byte] ^= 1 << bit;
        prop_assert!(
            Sketch::decode(&corrupt).is_err(),
            "flip at byte {byte} bit {bit} must not decode"
        );
    }

    /// Torn (truncated) sidecars are rejected the same way.
    #[test]
    fn torn_sidecar_fails_open(frac in 0.0f64..1.0) {
        let (_, _, sketch_bytes) = fixture();
        let cut = (frac * sketch_bytes.len() as f64) as usize;
        prop_assert!(cut < sketch_bytes.len());
        prop_assert!(Sketch::decode(&sketch_bytes[..cut]).is_err());
    }
}

/// The sidecar read path under injected storage faults: bit flips and torn
/// reads make `attach_sketch_storage` decline, the index stays usable, and
/// answers match the clean baseline exactly.
#[test]
fn faulty_sidecar_storage_degrades_to_no_sketch() {
    let (_, _, sketch_bytes) = fixture();
    for plan in [
        FaultPlan {
            seed: 0x0BAD,
            bit_flip: 1.0,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 0x70A2,
            torn_read: 1.0,
            ..FaultPlan::default()
        },
    ] {
        let mut disk = open_mem(false);
        let faulty = FaultyStorage::new(MemStorage::new(sketch_bytes.clone()), plan);
        // Torn reads surface as retryable errors at the storage layer, but
        // the sidecar loader makes one attempt only: any failure means "no
        // sketch", never a partial one.
        let attached = disk.attach_sketch_storage(&faulty);
        assert!(!attached, "faulted sidecar must not attach");
        assert!(disk.sketch().is_none());

        let queries = probes(0xD1CE, 16);
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let model = IsotropicNormal::new(DIMS, 10.0);
        let qopts = StatQueryOpts::new(0.9, 12);
        let got = disk
            .stat_query_batch(&qrefs, &model, &qopts, 32 << 10)
            .unwrap();
        let want = open_mem(false)
            .stat_query_batch(&qrefs, &model, &qopts, 32 << 10)
            .unwrap();
        assert_eq!(got.matches, want.matches);
        assert_eq!(got.timing.sketch_skips, 0);
    }
}

/// A stale sidecar — valid frame, but built from a different index
/// generation — is refused by the meta-CRC binding, so it can never skip
/// sections of an index it does not describe.
#[test]
fn stale_sidecar_is_refused_by_meta_crc() {
    let other = build_index(0x0DD_5EED);
    let path = std::env::temp_dir().join(format!("s3-sketch-stale-{}.idx", std::process::id()));
    DiskIndex::write_with(&other, &path, opts(8)).unwrap();
    let stale = Sketch::decode(&std::fs::read(Sketch::sidecar_path(&path)).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(Sketch::sidecar_path(&path));

    let mut disk = open_mem(false);
    assert!(
        !disk.attach_sketch(stale),
        "a sidecar from another index must be refused"
    );
    assert!(disk.sketch().is_none());
}

/// `DiskIndex::open` picks the sidecar up from disk and skips with it;
/// deleting the sidecar silently reverts to sketch-less behaviour with
/// identical answers.
#[test]
fn open_attaches_sidecar_and_survives_its_loss() {
    let (index, _, _) = fixture();
    let path = std::env::temp_dir().join(format!("s3-sketch-open-{}.idx", std::process::id()));
    DiskIndex::write_with(index, &path, opts(8)).unwrap();

    let disk = DiskIndex::open(&path).unwrap();
    assert!(disk.sketch().is_some(), "open must attach the sidecar");

    let queries = probes(0xAB1E, 16);
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let model = IsotropicNormal::new(DIMS, 10.0);
    let qopts = StatQueryOpts::new(0.9, 12);
    let with = disk
        .stat_query_batch(&qrefs, &model, &qopts, 16 << 10)
        .unwrap();

    std::fs::remove_file(Sketch::sidecar_path(&path)).unwrap();
    let bare = DiskIndex::open(&path).unwrap();
    assert!(bare.sketch().is_none());
    let without = bare
        .stat_query_batch(&qrefs, &model, &qopts, 16 << 10)
        .unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(with.matches, without.matches);
    assert_eq!(without.timing.sketch_skips, 0);
}

/// The durable engine rebuilds the sketch after every merge (it is derived
/// data, recomputed from WAL-committed pages through the buffer pool), and
/// a reopened handle gets one again at recovery.
#[test]
fn durable_engine_rebuilds_sketch_across_merges_and_reopen() {
    fn boxed(s: &SharedMemStorage) -> Box<dyn WritableStorage> {
        Box::new(s.clone())
    }
    fn fp(seed: u32) -> Vec<u8> {
        (0..4).map(|i| ((seed * 37 + i * 11) % 16) as u8).collect()
    }
    let data = SharedMemStorage::new();
    let wal = SharedMemStorage::new();
    let dopts = DurableOptions {
        page_size: 256,
        ..DurableOptions::default()
    };
    let curve = HilbertCurve::new(4, 8).unwrap();
    let mut idx = DurableIndex::create(boxed(&data), boxed(&wal), curve, dopts).unwrap();
    // Even the empty initial run carries a sketch (with zero entries): it
    // is rebuilt unconditionally at assemble time.
    let st0 = idx.engine_state();
    assert!(st0.sketch_attached && st0.sketch_entries == 0);
    for i in 0..24 {
        idx.insert(&fp(i), i, i).unwrap();
    }
    idx.merge().unwrap();
    let st = idx.engine_state();
    assert!(st.sketch_attached, "merge must rebuild the sketch");
    assert!(st.sketch_bytes > 0 && st.sketch_entries > 0);

    // Second merge over a bigger run: sketch follows the new generation.
    for i in 24..40 {
        idx.insert(&fp(i), i, i).unwrap();
    }
    idx.merge().unwrap();
    let st2 = idx.engine_state();
    assert!(st2.sketch_attached);
    assert!(st2.sketch_entries >= st.sketch_entries);
    drop(idx);

    let reopened = DurableIndex::open(boxed(&data), boxed(&wal), dopts).unwrap();
    assert!(
        reopened.engine_state().sketch_attached,
        "recovery must leave the reopened run with a sketch"
    );
}

/// Sidecar encode/decode round-trips through the Storage trait (the pager
/// path reads it the same way).
#[test]
fn sidecar_round_trips_through_storage() {
    let (_, _, sketch_bytes) = fixture();
    let storage = MemStorage::new(sketch_bytes.clone());
    let mut buf = vec![0u8; sketch_bytes.len()];
    storage.read_at(0, &mut buf).unwrap();
    let sk = Sketch::decode(&buf).unwrap();
    assert_eq!(sk.encode_to_vec(), *sketch_bytes);
}

/// Satellite regression: a range decomposition that blows past the
/// 4096-probe consult budget must ALWAYS fall back to loading the section
/// — never skip it — and the `sketch.probes` counter stops at the budget
/// for every consult instead of walking the whole span.
///
/// The workload makes the budget unreachable on purpose: a deep sketch
/// (4096 cells per table slot), a huge memory budget (one section spanning
/// the whole file, hundreds of slots) and very broad queries (low filter
/// depth, near-1 mass target) produce `range ∩ section` cell spans orders
/// of magnitude past the budget.
#[test]
fn probe_budget_exhaustion_always_loads() {
    use s3_core::pseudo_disk::SKETCH_PROBE_BUDGET;
    use s3_core::{CoreMetrics, SketchParams};

    let (_, bytes, _) = fixture();
    let mut with_sketch =
        DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    let deep = with_sketch
        .build_sketch(SketchParams {
            bits_per_entry: 8,
            depth: 20, // 12 bits below the table: 4096 cells per slot
        })
        .unwrap();
    assert!(with_sketch.attach_sketch(deep), "deep sketch must attach");
    let without_sketch = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();

    let model = IsotropicNormal::new(DIMS, 60.0);
    let opts = StatQueryOpts::new(0.999, 4); // depth-4 blocks: 16 slots each
    let q = probes(0xB1D6E7, 6);
    let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
    let big_budget = 1u64 << 20; // whole file in one section

    let m = CoreMetrics::get();
    // Snapshot order makes the per-consult bound robust against tests
    // running concurrently in this binary: consults first (low) and probes
    // second (high) at the start, the reverse at the end, so concurrent
    // consults can only weaken the left side and strengthen the right.
    let consults0 = m.sketch_section_skips.get() + m.sketch_sections_loaded.get();
    let probes0 = m.sketch_probes.get();

    let on = with_sketch
        .stat_query_batch(&queries, &model, &opts, big_budget)
        .unwrap();

    let probes1 = m.sketch_probes.get();
    let consults1 = m.sketch_section_skips.get() + m.sketch_sections_loaded.get();

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
    assert!(consults1 > consults0, "the sketch must have been consulted");
    // Every consult stops probing at the budget.
    assert!(
        probes1 - probes0 <= SKETCH_PROBE_BUDGET * (consults1 - consults0),
        "a consult probed past SKETCH_PROBE_BUDGET"
    );
}
