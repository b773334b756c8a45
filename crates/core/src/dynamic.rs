//! Insert-capable wrapper over the static S³ index.
//!
//! The paper's structure is deliberately static: "the S³ system is static: no
//! dynamic insertion or deletion are possible" (§IV). For a TV-archive
//! monitor that ingests new material daily, a real deployment needs inserts.
//! [`DynamicIndex`] adds them the classical LSM way without touching the
//! static core: new records accumulate in a small *overlay* (kept sorted by
//! Hilbert key); queries run the block filter once and scan both the main
//! index and the overlay against the same key ranges; when the overlay
//! outgrows a configurable fraction of the main index, the two are merged
//! into a fresh static index.
//!
//! Deletions stay out of scope, as in the paper — archives only grow.

use crate::distortion::DistortionModel;
use crate::fingerprint::RecordBatch;
use crate::index::{QueryResult, S3Index, SortedRun, StatQueryOpts};
use crate::metrics::CoreMetrics;
use crate::plan::{run_query, Ask, QueryPlan, QueryScan};
use s3_hilbert::HilbertCurve;

/// How a merge — or its crash recovery — ended.
///
/// In-memory merges always complete; the rolled-back and replayed variants
/// are produced by [`crate::durable::DurableIndex`] when it reopens after a
/// crash and finds an interrupted merge in the write-ahead log. Each
/// outcome is counted as `dynamic.merge.{ok,rolled_back,replayed}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The merge ran to completion (for durable indexes: committed,
    /// applied, and checkpointed).
    Completed,
    /// An interrupted merge was discarded at recovery: no commit record
    /// reached the log, so the pre-merge generation stands and the overlay
    /// records stay pending.
    RolledBack,
    /// A committed but incompletely applied merge was re-applied
    /// idempotently from WAL page images at recovery.
    Replayed,
}

/// A static S³ index plus a sorted insert overlay.
#[derive(Clone, Debug)]
pub struct DynamicIndex {
    main: S3Index,
    /// Inserted records not merged yet.
    overlay: SortedRun,
    /// Merge when `overlay_len > merge_fraction * main_len` (and overlay is
    /// non-trivially sized).
    merge_fraction: f64,
    /// Number of merges performed (observability for tests and ops).
    merges: usize,
}

impl DynamicIndex {
    /// Wraps an existing static index.
    ///
    /// `merge_fraction` in `(0, 1]`: the overlay size that triggers a merge,
    /// as a fraction of the main index (0.1 = merge at 10 %).
    pub fn new(main: S3Index, merge_fraction: f64) -> Self {
        assert!(
            merge_fraction > 0.0 && merge_fraction <= 1.0,
            "merge fraction out of range: {merge_fraction}"
        );
        let dims = main.records().dims();
        DynamicIndex {
            main,
            overlay: SortedRun::new(Vec::new(), RecordBatch::new(dims)),
            merge_fraction,
            merges: 0,
        }
    }

    /// Creates an empty dynamic index over exactly `curve`, axis order
    /// included; every merge keeps it.
    pub fn empty(curve: HilbertCurve, merge_fraction: f64) -> Self {
        let dims = curve.dims();
        DynamicIndex::new(
            S3Index::build_on(curve, RecordBatch::new(dims)),
            merge_fraction,
        )
    }

    /// Total records (main + overlay).
    pub fn len(&self) -> usize {
        self.main.len() + self.overlay.len()
    }

    /// True if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records currently in the overlay.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Merges performed so far.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// The wrapped static index (current main generation).
    pub fn main(&self) -> &S3Index {
        &self.main
    }

    /// Inserts one record; triggers a merge when the overlay outgrows the
    /// configured fraction of the main index.
    pub fn insert(&mut self, fingerprint: &[u8], id: u32, tc: u32) {
        self.overlay.insert(self.main.curve(), fingerprint, id, tc);
        let threshold = (self.main.len() as f64 * self.merge_fraction).max(256.0);
        if self.overlay.len() as f64 > threshold {
            self.merge();
        }
    }

    /// Forces the overlay into the main index (one static rebuild on the
    /// main index's curve: an index that grows keeps its axis order).
    ///
    /// Returns the outcome explicitly instead of rebuilding silently. An
    /// in-memory merge cannot be interrupted, so the outcome is always
    /// [`MergeOutcome::Completed`]; an empty overlay completes trivially
    /// without counting a merge.
    pub fn merge(&mut self) -> MergeOutcome {
        if self.overlay.len() == 0 {
            return MergeOutcome::Completed;
        }
        let dims = self.main.curve().dims();
        let mut all = RecordBatch::with_capacity(dims, self.len());
        all.extend_from(self.main.records());
        all.extend_from(self.overlay.records());
        self.main = S3Index::build_on(self.main.curve().clone(), all);
        self.overlay = SortedRun::new(Vec::new(), RecordBatch::new(dims));
        self.merges += 1;
        CoreMetrics::get().merge_ok.inc();
        MergeOutcome::Completed
    }

    /// Statistical query over main + overlay: one plan, two scans — the
    /// overlay is scanned against the very ranges main is, so the stats are
    /// the filter's plus the entries of both.
    pub fn stat_query(
        &self,
        q: &[u8],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
    ) -> QueryResult {
        let curve = self.main.curve();
        self.run(q, &Ask::stat(model, opts), || {
            QueryPlan::stat(curve, 0, q, model, opts, None)
        })
    }

    /// Exact ε-range query over main + overlay (one plan, as above).
    pub fn range_query(&self, q: &[u8], eps: f64, depth: u32) -> QueryResult {
        let curve = self.main.curve();
        self.run(q, &Ask::range(eps, depth), || {
            QueryPlan::range(curve, 0, q, eps, depth, None)
        })
    }

    fn run(&self, q: &[u8], ask: &Ask, plan: impl FnOnce() -> QueryPlan) -> QueryResult {
        let scan = |plan: &QueryPlan| self.scan(q, plan, ask);
        run_query(ask, self.len() as u64, None, plan, scan)
    }

    /// Stage 2 over main, then the overlay — whose matches get indices
    /// offset by the main length so they stay unique. No entry point over a
    /// dynamic index takes a ctx, so nothing is polled and no EXPLAIN tally
    /// is kept.
    pub(crate) fn scan(&self, q: &[u8], plan: &QueryPlan, ask: &Ask) -> QueryScan {
        let mut scan = self.main.scan(q, plan, ask, None);
        let base = self.main.len();
        let overlay =
            self.overlay
                .scan(self.main.curve(), None, &plan.ranges, q, ask, base, || {
                    false
                });
        scan.matches.extend(overlay.matches);
        scan.stats.entries_scanned += overlay.entries;
        scan.refine_ns += overlay.ns;
        scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::{CountingModel, IsotropicNormal};
    use crate::index::{prefix_of, FilterAlgo, Match, QueryStats};
    use s3_hilbert::Key256;

    const DIMS: usize = 6;

    fn curve() -> HilbertCurve {
        HilbertCurve::new(DIMS, 8).unwrap()
    }

    fn rand_fp(state: &mut u64) -> Vec<u8> {
        (0..DIMS)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state >> 32) as u8
            })
            .collect()
    }

    fn ids(matches: &[Match]) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = matches.iter().map(|m| (m.id, m.tc)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn inserted_records_are_queryable() {
        let mut dyn_idx = DynamicIndex::empty(curve(), 0.5);
        let fp = [10u8, 20, 30, 40, 50, 60];
        dyn_idx.insert(&fp, 7, 99);
        assert_eq!(dyn_idx.len(), 1);
        let model = IsotropicNormal::new(DIMS, 10.0);
        let res = dyn_idx.stat_query(&fp, &model, &StatQueryOpts::new(0.9, 8));
        assert!(res.matches.iter().any(|m| m.id == 7 && m.tc == 99));
        let res = dyn_idx.range_query(&fp, 5.0, 8);
        assert_eq!(res.matches.len(), 1);
    }

    #[test]
    fn dynamic_equals_static_rebuild() {
        // Build the same record set two ways: all-static, and half static +
        // half inserted; every query must agree. Every tenth inserted record
        // repeats one inserted before it, so the overlay holds equal keys.
        let mut state = 0xD1Au64;
        let mut records: Vec<Vec<u8>> = (0..600).map(|_| rand_fp(&mut state)).collect();
        for i in (330..600).step_by(10) {
            records[i] = records[i - 25].clone();
        }

        let mut full = RecordBatch::new(DIMS);
        for (i, fp) in records.iter().enumerate() {
            full.push(fp, i as u32, 0);
        }
        let mut half = RecordBatch::new(DIMS);
        for (i, fp) in records.iter().take(300).enumerate() {
            half.push(fp, i as u32, 0);
        }
        let mut dyn_idx = DynamicIndex::new(S3Index::build(curve(), half), 1.0);
        // Both assemblies on one curve: the one the half-built main ranked.
        let static_idx = S3Index::build_on(dyn_idx.main().curve().clone(), full);
        // The overlay as a sorted rebuild per insert kept it: each new
        // record before the equal keys already there.
        let mut rebuilt_keys: Vec<Key256> = Vec::new();
        let mut rebuilt = RecordBatch::new(DIMS);
        for (i, fp) in records.iter().enumerate().skip(300) {
            dyn_idx.insert(fp, i as u32, 0);
            let key = dyn_idx.main().curve().encode_bytes(fp);
            let at = rebuilt_keys.iter().take_while(|k| **k < key).count();
            rebuilt_keys.insert(at, key);
            let mut next = RecordBatch::new(DIMS);
            for r in rebuilt.iter().take(at) {
                next.push(r.fingerprint, r.id, r.tc);
            }
            next.push(fp, i as u32, 0);
            for r in rebuilt.iter().skip(at) {
                next.push(r.fingerprint, r.id, r.tc);
            }
            rebuilt = next;
        }
        assert_eq!(dyn_idx.len(), 600);
        let curve = dyn_idx.main().curve();
        let rebuilt_prefixes: Vec<u64> = rebuilt_keys.iter().map(|k| prefix_of(curve, k)).collect();
        assert_eq!(dyn_idx.overlay.prefixes(), rebuilt_prefixes);
        assert_eq!(dyn_idx.overlay.records(), &rebuilt);

        let model = IsotropicNormal::new(DIMS, 12.0);
        let mut qstate = 0xBEEFu64;
        for _ in 0..20 {
            let q = rand_fp(&mut qstate);
            let opts = StatQueryOpts::new(0.85, 10);
            let a = static_idx.stat_query(&q, &model, &opts);
            let b = dyn_idx.stat_query(&q, &model, &opts);
            assert_eq!(ids(&a.matches), ids(&b.matches), "stat query diverged");
            let a = static_idx.range_query(&q, 90.0, 10);
            let b = dyn_idx.range_query(&q, 90.0, 10);
            assert_eq!(ids(&a.matches), ids(&b.matches), "range query diverged");
        }
    }

    /// On the paper's curve a run keeps 64 of 160 key bits, so inserted
    /// records can share a prefix and differ below it: the overlay still
    /// holds them in full-key order, each before the equal keys already
    /// there — the order a full-key sort with later arrivals first gives.
    #[test]
    fn overlay_insert_orders_shared_prefixes_by_full_key() {
        let curve = HilbertCurve::paper();
        let mut dyn_idx = DynamicIndex::empty(curve.clone(), 1.0);
        let mut state = 0x0DD5u64;
        let centres: Vec<Vec<u8>> = (0..3)
            .map(|_| {
                (0..20)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 32) as u8
                    })
                    .collect()
            })
            .collect();
        let mut inserted: Vec<(Key256, usize)> = Vec::new();
        for i in 0..200usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // The low three bits of each component redrawn: the top 80 key
            // bits, and so the prefix, stay the centre's.
            let fp: Vec<u8> = centres[i % 3]
                .iter()
                .enumerate()
                .map(|(c, &x)| (x & !7) | ((state >> (c * 3)) as u8 & 7))
                .collect();
            let fp = if i % 7 == 6 {
                dyn_idx.overlay.records().fingerprint(0).to_vec()
            } else {
                fp
            };
            dyn_idx.insert(&fp, i as u32, 0);
            inserted.push((curve.encode_bytes(&fp), i));
        }
        assert_eq!((dyn_idx.overlay_len(), dyn_idx.merges()), (200, 0));
        inserted.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let want: Vec<u32> = inserted.iter().map(|&(_, i)| i as u32).collect();
        assert_eq!(dyn_idx.overlay.records().ids(), want);
        let prefixes = dyn_idx.overlay.prefixes();
        let ties = (1..200)
            .filter(|&i| prefixes[i - 1] == prefixes[i] && inserted[i - 1].0 != inserted[i].0)
            .count();
        assert!(
            ties > 100,
            "only {ties} neighbours share a prefix but not a key"
        );
    }

    /// Records whose first three components spread over the byte range and
    /// whose others stay near the centre: an order worth ranking.
    fn lopsided_fp(state: &mut u64) -> Vec<u8> {
        rand_fp(state)
            .into_iter()
            .enumerate()
            .map(|(c, x)| if c < 3 { x } else { 120 + x / 16 })
            .collect()
    }

    #[test]
    fn ranked_main_keeps_its_curve_across_merges() {
        let mut state = 0xA11CEu64;
        let records: Vec<Vec<u8>> = (0..1500).map(|_| lopsided_fp(&mut state)).collect();
        let mut first = RecordBatch::new(DIMS);
        for (i, fp) in records.iter().take(400).enumerate() {
            first.push(fp, i as u32, 0);
        }
        let main = S3Index::build(curve(), first);
        let ranked = main.curve().clone();
        assert!(!ranked.is_identity());
        let mut wide = ranked.split_order()[..3].to_vec();
        wide.sort_unstable();
        assert_eq!(wide, [0, 1, 2], "the wide components first");
        let mut dyn_idx = DynamicIndex::new(main, 0.1);
        let mut all = RecordBatch::new(DIMS);
        for (i, fp) in records.iter().enumerate() {
            all.push(fp, i as u32, 0);
            if i >= 400 {
                dyn_idx.insert(fp, i as u32, 0);
            }
        }
        assert!(dyn_idx.merges() >= 2, "{} merges", dyn_idx.merges());
        assert!(dyn_idx.overlay_len() > 0);
        assert_eq!(dyn_idx.main().curve(), &ranked);
        let fresh = S3Index::build_on(ranked, all);
        let model = IsotropicNormal::new(DIMS, 12.0);
        let mut qstate = 0xC0FFEEu64;
        for _ in 0..20 {
            let q = lopsided_fp(&mut qstate);
            let opts = StatQueryOpts::new(0.85, 10);
            let (a, b) = (
                fresh.stat_query(&q, &model, &opts),
                dyn_idx.stat_query(&q, &model, &opts),
            );
            assert_eq!(ids(&a.matches), ids(&b.matches), "stat query diverged");
            assert_eq!(a.stats.entries_scanned, b.stats.entries_scanned);
            let (a, b) = (
                fresh.range_query(&q, 60.0, 10),
                dyn_idx.range_query(&q, 60.0, 10),
            );
            assert_eq!(ids(&a.matches), ids(&b.matches), "range query diverged");
        }
    }

    #[test]
    fn stat_query_filters_once_and_adds_only_overlay_entries() {
        // One filter pass, with the caller's options: the model is
        // integrated exactly as often as by the static engine alone, every
        // filter-side counter is the static engine's, and only
        // `entries_scanned` grows, by the overlay records in the ranges.
        let mut state = 0x5EEDu64;
        let mut base = RecordBatch::new(DIMS);
        for i in 0..400u32 {
            base.push(&rand_fp(&mut state), i, 0);
        }
        let main = S3Index::build(curve(), base);
        let mut dyn_idx = DynamicIndex::new(main.clone(), 1.0);
        let inserted: Vec<Vec<u8>> = (0..200).map(|_| rand_fp(&mut state)).collect();
        for (i, fp) in inserted.iter().enumerate() {
            dyn_idx.insert(fp, 1000 + i as u32, 0);
        }
        assert_eq!(dyn_idx.merges(), 0);
        let mut queries = inserted.iter();
        let model = CountingModel::new(IsotropicNormal::new(DIMS, 14.0));
        let integrations = || model.take_integrations();
        for algo in [
            FilterAlgo::BestFirst,
            FilterAlgo::Threshold { iterations: 20 },
        ] {
            let mut opts = StatQueryOpts::new(0.9, 9);
            opts.algo = algo;
            let q = queries.next().unwrap();
            let want = main.stat_query(q, &model, &opts);
            let static_work = integrations();
            let got = dyn_idx.stat_query(q, &model, &opts);
            assert_eq!(integrations(), static_work, "{algo:?}");
            let overlay = got.matches.iter().filter(|m| m.id >= 1000).count();
            assert!(overlay > 0, "query must reach the overlay");
            assert_eq!(
                got.stats,
                QueryStats {
                    entries_scanned: want.stats.entries_scanned + overlay,
                    ..want.stats
                }
            );
        }
    }

    #[test]
    fn merge_threshold_triggers_and_preserves_results() {
        let mut base = RecordBatch::new(DIMS);
        let mut state = 1u64;
        for i in 0..1000u32 {
            base.push(&rand_fp(&mut state), i, 0);
        }
        // 256-minimum dominates 10% of 1000: merge fires past 256 overlay rows.
        let mut dyn_idx = DynamicIndex::new(S3Index::build(curve(), base), 0.1);
        for i in 0..400u32 {
            dyn_idx.insert(&rand_fp(&mut state), 10_000 + i, i);
        }
        assert!(dyn_idx.merges() >= 1, "merge should have fired");
        assert_eq!(dyn_idx.len(), 1400);
        // Every inserted record remains findable by exact range query.
        let mut state2 = 1u64;
        for _ in 0..1000 {
            rand_fp(&mut state2); // replay base
        }
        for i in 0..400u32 {
            let fp = rand_fp(&mut state2);
            let res = dyn_idx.range_query(&fp, 0.5, 10);
            assert!(
                res.matches.iter().any(|m| m.id == 10_000 + i),
                "record {i} lost after merge"
            );
        }
    }

    #[test]
    fn explicit_merge_empties_overlay() {
        let mut dyn_idx = DynamicIndex::empty(curve(), 1.0);
        let mut state = 3u64;
        for i in 0..50u32 {
            dyn_idx.insert(&rand_fp(&mut state), i, 0);
        }
        assert_eq!(dyn_idx.overlay_len(), 50);
        let ok_before = CoreMetrics::get().merge_ok.get();
        assert_eq!(dyn_idx.merge(), MergeOutcome::Completed);
        assert_eq!(dyn_idx.overlay_len(), 0);
        assert_eq!(dyn_idx.main().len(), 50);
        assert_eq!(dyn_idx.merges(), 1);
        // > : other tests in this binary may merge concurrently.
        assert!(CoreMetrics::get().merge_ok.get() > ok_before);
        // No-op on empty overlay: trivially complete, not a counted merge.
        assert_eq!(dyn_idx.merge(), MergeOutcome::Completed);
        assert_eq!(dyn_idx.merges(), 1);
    }

    #[test]
    #[should_panic(expected = "merge fraction out of range")]
    fn bad_merge_fraction() {
        DynamicIndex::empty(curve(), 0.0);
    }
}
