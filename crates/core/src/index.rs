//! The S³ index structure (§IV).
//!
//! The fingerprint database is *physically ordered* by position on the
//! Hilbert curve; the structure is static (no dynamic insertion or deletion),
//! exactly as in the paper. A query is answered in two steps:
//!
//! 1. **Filtering** ([`crate::filter`]) selects a set of p-blocks — i.e.
//!    curve intervals — according to the distortion model (statistical query)
//!    or the query ball (ε-range query).
//! 2. **Refinement** locates each interval in the sorted record array via an
//!    index table plus binary search, merges abutting intervals, and scans
//!    the records sequentially, applying the refinement predicate.

use crate::autotune::learn_depth;
use crate::distortion::DistortionModel;
use crate::filter::{select_blocks_bbox, FilterOutcome, UNPRUNED};
use crate::fingerprint::RecordBatch;
use crate::kernels;
use crate::plan::{run_query, tally_blocks, Ask, QueryPlan, QueryScan};
use crate::resilience::{QueryCtx, REFINE_CHUNK};
use s3_hilbert::{HilbertCurve, Key256, KeyBound, KeyRange, MAX_DIMS};
use s3_obs::{span, ExplainReport};
use std::time::Instant;

/// Which algorithm computes the statistical block selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FilterAlgo {
    /// Exact minimal set by best-first descent (default).
    #[default]
    BestFirst,
    /// The paper's `t_max` bisection with the given iteration count.
    Threshold {
        /// Number of bisection steps on `t`.
        iterations: usize,
    },
}

/// Refinement predicate applied to each scanned record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Refine {
    /// Return every record in the selected blocks (the paper's behaviour:
    /// the voting stage downstream is the real discriminator).
    All,
    /// Keep records within Euclidean distance `ε` of the query.
    Range(f64),
}

/// A [`Refine`] predicate bound to one query, and the inner loop of
/// [`SortedRun::scan`]: runs of contiguous records go through the kernel
/// for the predicate, cut only where a cancellation poll falls.
struct Refiner<'a> {
    q: &'a [u8],
    refine: Refine,
    /// Range refinement compares the integer d² against ⌊ε²⌋ — exactly
    /// equivalent to `d² as f64 <= ε²` (see `kernels::bound_from_eps_sq`)
    /// but lets the kernel reject a record on its first 16 components.
    range_bound: Option<u64>,
    /// Records left before the next cancellation poll. The count runs
    /// across [`Refiner::scan`] calls, so many short ranges are polled as
    /// often as one long one.
    until_poll: usize,
    /// Records refined so far, over every [`Refiner::scan`] call.
    entries: usize,
}

impl<'a> Refiner<'a> {
    fn new(q: &'a [u8], refine: Refine) -> Self {
        Refiner {
            q,
            refine,
            range_bound: match refine {
                Refine::Range(eps) => kernels::bound_from_eps_sq(eps * eps),
                Refine::All => None,
            },
            // The first poll comes before the REFINE_CHUNK-th record, every
            // later one REFINE_CHUNK records after the last.
            until_poll: REFINE_CHUNK - 1,
            entries: 0,
        }
    }

    /// Refines records `lo..hi` of `fps`, an array of `q.len()`-byte
    /// records, calling `hit(i, d)` for each record `i` the predicate keeps
    /// — `d` being its squared distance to the query when the predicate
    /// computed one. Polls `stop` every [`REFINE_CHUNK`] records (one chunk
    /// is the uninterruptible unit); once it fires, returns false with the
    /// rest of the range unrefined.
    fn scan(
        &mut self,
        fps: &[u8],
        lo: usize,
        hi: usize,
        stop: impl Fn() -> bool,
        mut hit: impl FnMut(usize, Option<f64>),
    ) -> bool {
        let dims = self.q.len();
        let mut i = lo;
        while i < hi {
            if self.until_poll == 0 {
                if stop() {
                    return false;
                }
                self.until_poll = REFINE_CHUNK;
            }
            let end = hi.min(i + self.until_poll);
            self.refine_run(&fps[i * dims..end * dims], i, &mut hit);
            self.until_poll -= end - i;
            self.entries += end - i;
            i = end;
        }
        true
    }

    /// The predicate over one run of records, the first being record
    /// `first`: `Range` through the run kernel, `All` record by record.
    #[inline]
    fn refine_run(&mut self, run: &[u8], first: usize, hit: &mut impl FnMut(usize, Option<f64>)) {
        let per_record = !matches!(self.refine, Refine::Range(_));
        #[cfg(test)]
        let per_record = per_record || per_record_oracle::on();
        if per_record {
            for (k, fp) in run.chunks_exact(self.q.len()).enumerate() {
                if let Some(d) = self.keep(fp) {
                    hit(first + k, d);
                }
            }
        } else if let Some(bound) = self.range_bound {
            kernels::scan_within(self.q, run, bound, |k, d2| hit(first + k, Some(d2 as f64)));
        }
    }

    /// The per-record predicate, and the oracle of the run kernel: `None`
    /// rejects the record; `Some(d)` keeps it, `d` being its squared
    /// distance to the query when the predicate computed one.
    #[inline]
    fn keep(&mut self, fp: &[u8]) -> Option<Option<f64>> {
        match self.refine {
            Refine::All => Some(None),
            Refine::Range(_) => self
                .range_bound
                .and_then(|bound| kernels::dist_sq_within(self.q, fp, bound))
                .map(|d2| Some(d2 as f64)),
        }
    }
}

/// Test-only switch that sends every [`Refiner`] run on this thread through
/// the per-record predicate instead of the run kernel: the oracle the
/// engines' answers are checked against.
#[cfg(test)]
pub(crate) mod per_record_oracle {
    use std::cell::Cell;

    thread_local!(static ON: Cell<bool> = const { Cell::new(false) });

    pub(crate) fn on() -> bool {
        ON.with(Cell::get)
    }

    /// Runs `f` with the oracle on for this thread.
    pub(crate) fn with<R>(f: impl FnOnce() -> R) -> R {
        ON.with(|on| on.set(true));
        let r = f();
        ON.with(|on| on.set(false));
        r
    }
}

/// Key bits a sorted run keeps of each record's curve key: the top 64, so
/// the whole key on a curve of at most 64 key bits.
pub(crate) fn prefix_bits(curve: &HilbertCurve) -> u32 {
    curve.key_bits().min(64)
}

/// The prefix a sorted run stores for `key` on `curve`: its top
/// [`prefix_bits`] bits.
pub(crate) fn prefix_of(curve: &HilbertCurve, key: &Key256) -> u64 {
    let bits = prefix_bits(curve);
    key.digit(curve.key_bits() - bits, bits)
}

/// Depth of the slot table over `n_records` records on `curve`: about one
/// slot per 16 records, capped to keep the table small and within the key
/// width. The in-memory [`SlotTable`] and every generation a durable index
/// writes take their depth from here.
pub(crate) fn slot_depth(curve: &HilbertCurve, n_records: usize) -> u32 {
    (n_records / 16)
        .next_power_of_two()
        .trailing_zeros()
        .clamp(1, 20)
        .min(curve.key_bits())
}

/// Where each key slot of a sorted run starts: `first[s]` is the first
/// record whose key has top bits ≥ `s` — O(1) coarse range location.
#[derive(Clone, Debug)]
pub(crate) struct SlotTable {
    first: Vec<u32>,
    /// Prefix bits below the slot number.
    shift: u32,
}

impl SlotTable {
    /// The table of `prefixes` (sorted, on `curve`), [`slot_depth`] deep.
    fn new(curve: &HilbertCurve, prefixes: &[u64]) -> SlotTable {
        let depth = slot_depth(curve, prefixes.len());
        let slots = 1usize << depth;
        let shift = prefix_bits(curve) - depth;
        let mut first = vec![0u32; slots + 1];
        // Walk the sorted prefixes once, recording the first record of each
        // slot.
        let mut slot = 0usize;
        for (i, &prefix) in prefixes.iter().enumerate() {
            let s = (prefix >> shift) as usize;
            while slot <= s {
                first[slot] = i as u32;
                slot += 1;
            }
        }
        first[slot..].fill(prefixes.len() as u32);
        SlotTable { first, shift }
    }

    /// The records whose keys share the slot of a key whose prefix is
    /// `prefix`.
    fn window(&self, prefix: u64) -> (usize, usize) {
        let slot = (prefix >> self.shift) as usize;
        (self.first[slot] as usize, self.first[slot + 1] as usize)
    }
}

/// Records sorted by curve key — the key-sorted file of §IV-A, whole or one
/// resident section of it (§IV-B) — with the one key locate and the one
/// refinement loop every engine runs: an [`S3Index`] holds one beside its
/// [`SlotTable`], a pseudo-disk section and an insert overlay hold one bare.
///
/// A run stores each key's top 64 bits ([`prefix_of`]), not the key: the
/// key is a function of the fingerprint beside it. The locate compares
/// prefixes, which is exact for every bound with no bit set below the
/// prefix — every range bound of a plan of depth ≤ 64, since a range is a
/// union of depth-p cells (`KeyRange::of_ranks`). A bound with bits below
/// the prefix (a deeper plan, a k-NN scan depth past 64, an insert) is
/// placed among the records that share its prefix by their full keys,
/// recomputed from their fingerprints.
#[derive(Clone, Debug, Default)]
pub(crate) struct SortedRun {
    prefixes: Vec<u64>,
    records: RecordBatch,
}

/// What one [`SortedRun::scan`] found and did.
pub(crate) struct RunScan {
    /// Records the predicate kept, in run order.
    pub(crate) matches: Vec<Match>,
    /// Ranges visited, the one a stop fell in included.
    pub(crate) ranges: usize,
    /// Records refined.
    pub(crate) entries: usize,
    /// A stop cut the scan short.
    pub(crate) stopped: bool,
    /// Wall-clock time the scan took.
    pub(crate) ns: u64,
}

impl SortedRun {
    /// A run of `records` whose key prefixes are `prefixes`, both already in
    /// key order.
    ///
    /// # Panics
    /// If the lengths differ.
    pub(crate) fn new(prefixes: Vec<u64>, records: RecordBatch) -> SortedRun {
        assert_eq!(
            prefixes.len(),
            records.len(),
            "prefixes/records length mismatch"
        );
        SortedRun { prefixes, records }
    }

    pub(crate) fn prefixes(&self) -> &[u64] {
        &self.prefixes
    }

    pub(crate) fn records(&self) -> &RecordBatch {
        &self.records
    }

    pub(crate) fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// The two columns, for a loader to refill and hand back through
    /// [`SortedRun::new`].
    pub(crate) fn into_parts(self) -> (Vec<u64>, RecordBatch) {
        (self.prefixes, self.records)
    }

    /// The full curve key of record `i`, recomputed from its fingerprint.
    fn key(&self, curve: &HilbertCurve, i: usize) -> Key256 {
        curve.encode_bytes(self.records.fingerprint(i))
    }

    /// Inserts one record under its key on `curve`, before any records of
    /// an equal key.
    pub(crate) fn insert(&mut self, curve: &HilbertCurve, fingerprint: &[u8], id: u32, tc: u32) {
        let key = curve.encode_bytes(fingerprint);
        let at = self.lower_bound_from(curve, None, 0, &key);
        self.prefixes.insert(at, prefix_of(curve, &key));
        self.records.insert(at, fingerprint, id, tc);
    }

    /// The half-open record range `[start, end)` a key range covers, `from`
    /// being where the previous range ended for a caller sweeping ascending
    /// ranges (0 otherwise).
    pub(crate) fn locate(
        &self,
        curve: &HilbertCurve,
        table: Option<&SlotTable>,
        from: usize,
        range: &KeyRange,
    ) -> (usize, usize) {
        let start = self.lower_bound_from(curve, table, from, &range.lo);
        let end = match range.hi {
            KeyBound::Excl(hi) => self.lower_bound_from(curve, table, start, &hi),
            KeyBound::End => self.len(),
        };
        (start, end.max(start))
    }

    /// First record with key ≥ `key`, `from` being the previous answer of
    /// a caller sweeping ascending bounds. A scan list of thousands of
    /// ranges (deep partitions) puts the next bound a few records ahead, so
    /// the records right after `from` — which the scan is about to read
    /// anyway — are searched first. Only a bound beyond that window (or one
    /// not ascending) searches further: within its slot of `table`, or the
    /// whole run when there is no table.
    ///
    /// The search compares prefixes. For a bound with no bit below its
    /// prefix that is exact: a record sorts before the bound exactly when
    /// its prefix is smaller. Otherwise the records sharing the bound's
    /// prefix are searched by their full keys.
    fn lower_bound_from(
        &self,
        curve: &HilbertCurve,
        table: Option<&SlotTable>,
        from: usize,
        key: &Key256,
    ) -> usize {
        /// Records searched in place first: one table slot's worth.
        const NEAR: usize = 16;
        let prefix = prefix_of(curve, key);
        let near_end = self.len().min(from + NEAR);
        let ascending = from == 0 || self.prefixes[from - 1] < prefix;
        let (lo, hi) = match self.prefixes[from..near_end].last() {
            Some(&last) if ascending && prefix <= last => (from, near_end),
            _ => table.map_or((0, self.len()), |t| t.window(prefix)),
        };
        let at = lo + self.prefixes[lo..hi].partition_point(|&p| p < prefix);
        let below = Key256::low_mask(curve.key_bits() - prefix_bits(curve));
        if key.and(&below).is_zero() {
            return at;
        }
        // Bits below the prefix: binary search the run of equal prefixes
        // (which may reach past the window) by full key.
        let (mut lo, mut hi) = (
            at,
            at + self.prefixes[at..].partition_point(|&p| p == prefix),
        );
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(curve, mid) < *key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Refinement (stage 2) of one query over this run on `curve`: locates
    /// each of `ranges` (ascending) and refines its records against `q` as
    /// `ask` says, record `i` matching as index `base + i`. Polls `stop`
    /// every [`REFINE_CHUNK`] records across the ranges and ends the scan
    /// when it fires.
    #[allow(clippy::too_many_arguments)] // the locate's curve and table beside the query's terms
    pub(crate) fn scan<'r>(
        &self,
        curve: &HilbertCurve,
        table: Option<&SlotTable>,
        ranges: impl IntoIterator<Item = &'r KeyRange>,
        q: &[u8],
        ask: &Ask,
        base: usize,
        stop: impl Fn() -> bool,
    ) -> RunScan {
        let t0 = Instant::now();
        let mut out = RunScan {
            matches: Vec::new(),
            ranges: 0,
            entries: 0,
            stopped: false,
            ns: 0,
        };
        let mut refiner = Refiner::new(q, ask.refine);
        let fps = self.records.fingerprint_bytes();
        let mut cursor = 0;
        for range in ranges {
            let (start, end) = self.locate(curve, table, cursor, range);
            cursor = end;
            out.ranges += 1;
            let kept = refiner.scan(fps, start, end, &stop, |i, dist_sq| {
                out.matches.push(Match {
                    index: base + i,
                    id: self.records.id(i),
                    tc: self.records.tc(i),
                    dist_sq,
                })
            });
            if !kept {
                out.stopped = true;
                break;
            }
        }
        out.entries = refiner.entries;
        out.ns = t0.elapsed().as_nanos() as u64;
        out
    }
}

/// Options of a statistical query.
#[derive(Clone, Copy, Debug)]
pub struct StatQueryOpts {
    /// Expectation α ∈ (0, 1]: target probability that a relevant
    /// (distorted) fingerprint falls in the searched region.
    pub alpha: f64,
    /// Partition depth `p`, in `1..=key_bits`. Nothing derives it from the
    /// database size: a caller names it or learns it
    /// ([`StatQueryOpts::learned`], the paper's start-of-retrieval `p_min`).
    pub depth: u32,
    /// Refinement predicate.
    pub refine: Refine,
    /// Filtering algorithm.
    pub algo: FilterAlgo,
    /// Hard budget on selected blocks.
    pub max_blocks: usize,
}

impl StatQueryOpts {
    /// Reasonable defaults for a given α and depth: best-first filter,
    /// return-all refinement, 64k block budget.
    pub fn new(alpha: f64, depth: u32) -> Self {
        StatQueryOpts {
            alpha,
            depth,
            refine: Refine::All,
            algo: FilterAlgo::BestFirst,
            max_blocks: 1 << 16,
        }
    }

    /// [`StatQueryOpts::new`] at the depth learned from `index` under
    /// `model` ([`crate::autotune::learn_depth`]) — for a caller that holds
    /// an index and names no depth.
    pub fn learned(alpha: f64, index: &S3Index, model: &dyn DistortionModel) -> Self {
        let opts = StatQueryOpts::new(alpha, 0);
        StatQueryOpts {
            depth: learn_depth(index, model, &opts).best_depth,
            ..opts
        }
    }
}

/// One record returned by a query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Match {
    /// Position of the record in the index (stable across queries).
    pub index: usize,
    /// Video sequence identifier.
    pub id: u32,
    /// Time-code.
    pub tc: u32,
    /// Squared distance to the query, when the refinement computed it.
    pub dist_sq: Option<f64>,
}

/// Work counters of a query (the paper's `T_f` / `T_r` decomposition).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Tree nodes expanded by the filter.
    pub nodes_expanded: usize,
    /// Blocks selected by the filter.
    pub blocks_selected: usize,
    /// Contiguous key ranges scanned after merging abutting blocks.
    pub ranges_scanned: usize,
    /// Records visited by the refinement scan.
    pub entries_scanned: usize,
    /// Probability mass captured (statistical queries).
    pub mass: f64,
    /// The mass the filter aimed at — the requested α capped at what the
    /// byte cube can hold around this query (see
    /// [`crate::filter::reachable_alpha`]); NaN for a geometric filter, 0
    /// when no filter ran.
    pub target: f64,
    /// `t_max` (threshold filter only).
    pub tmax: Option<f64>,
    /// True if the block budget truncated the filter.
    pub truncated: bool,
    /// Pseudo-disk only: sections this query needed that stayed unreadable.
    pub sections_skipped: usize,
    /// Pseudo-disk only: sections the sketch proved hold no candidate for
    /// this query, skipped without I/O. Never a degradation — every skip
    /// is a true negative, so the match list is unaffected.
    pub sketch_skipped: usize,
    /// True if a deadline or cancellation stopped this query before it
    /// finished — the match list covers the work completed up to the stop.
    pub cancelled: bool,
    /// Pseudo-disk only: section-load retries spent on behalf of this
    /// query (a retry for a section shared by several queries is counted
    /// once per query that needed the section). A hedged shard request
    /// that loses the race contributes nothing here — only the winning
    /// replica's work is merged.
    pub retries: u32,
    /// Sharded queries only: shards this query needed whose every replica
    /// stayed unreachable. Like `sections_skipped`, any non-zero value
    /// means the match list may be missing records from that key range.
    pub shard_skips: u32,
    /// True if the match list may be incomplete for any reason: sections
    /// stayed unreadable (`sections_skipped > 0`), whole shards were lost
    /// (`shard_skips > 0`), or the query was
    /// [`cancelled`](QueryStats::cancelled). Results are exact over the work
    /// actually performed.
    pub degraded: bool,
}

impl QueryStats {
    /// The filter-side counters of a query; the scan fills in the rest.
    pub(crate) fn of_filter(outcome: &FilterOutcome) -> QueryStats {
        QueryStats {
            nodes_expanded: outcome.nodes_expanded,
            blocks_selected: outcome.blocks.len(),
            mass: outcome.mass,
            target: outcome.target,
            tmax: outcome.tmax,
            truncated: outcome.truncated,
            ..QueryStats::default()
        }
    }

    /// Adds what a scan of this query's plan counted — over one more run of
    /// records, or the whole scan onto the filter's side — and recomputes
    /// `degraded` from the evidence, so the flags agree whatever path set
    /// them.
    pub(crate) fn absorb_scan(&mut self, scan: &QueryStats) {
        self.ranges_scanned += scan.ranges_scanned;
        self.entries_scanned += scan.entries_scanned;
        self.sections_skipped += scan.sections_skipped;
        self.sketch_skipped += scan.sketch_skipped;
        self.retries += scan.retries;
        self.shard_skips += scan.shard_skips;
        self.cancelled |= scan.cancelled;
        self.degraded = self.sections_skipped > 0 || self.shard_skips > 0 || self.cancelled;
    }
}

/// Result of a query: matches plus work counters.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// Matching records.
    pub matches: Vec<Match>,
    /// Work counters.
    pub stats: QueryStats,
    /// The query's EXPLAIN report, when its [`QueryCtx`] asked for one
    /// ([`QueryCtx::explain`]): each selected block's predicted mass next
    /// to the records refinement actually scanned in it and the matches
    /// those records produced, per-phase time, and an annotation for every
    /// way the answer may be incomplete.
    pub explain: Option<ExplainReport>,
}

/// Which components of `records` are *wide*: their variance is at least
/// the mean variance over all components.
///
/// Compared exactly in integers, `D·(n·Σx² − (Σx)²) ≥ Σ_c (n·Σx_c² −
/// (Σx_c)²)`, so neither the order of summation nor the order in which the
/// records arrive can change the answer. Constant or empty data is all wide.
fn wide_components(records: &RecordBatch) -> [bool; MAX_DIMS] {
    let dims = records.dims();
    let (mut sum, mut sum_sq) = ([0u64; MAX_DIMS], [0u64; MAX_DIMS]);
    for fp in records.fingerprint_bytes().chunks_exact(dims) {
        for ((s, q), &x) in sum.iter_mut().zip(&mut sum_sq).zip(fp) {
            *s += u64::from(x);
            *q += u64::from(x) * u64::from(x);
        }
    }
    let n = records.len() as u128;
    let spread = |c: usize| n * u128::from(sum_sq[c]) - u128::from(sum[c]).pow(2);
    let total: u128 = (0..dims).map(spread).sum();
    let mut wide = [false; MAX_DIMS];
    for (c, w) in wide.iter_mut().enumerate().take(dims) {
        *w = spread(c) * dims as u128 >= total;
    }
    wide
}

/// The static S³ index: records sorted by Hilbert key, an index table for
/// O(1) coarse range location, and the query engines.
#[derive(Clone, Debug)]
pub struct S3Index {
    curve: HilbertCurve,
    run: SortedRun,
    table: SlotTable,
}

impl S3Index {
    /// Builds the index on `curve`'s space with the records' wide
    /// components split first: the curve halves every component whose
    /// variance is at least the mean variance before any other, each group
    /// in the order the identity curve splits it
    /// ([`HilbertCurve::split_first`]). Then as [`S3Index::build_on`].
    ///
    /// The order is a property of the record set, never an option: the same
    /// records give the same curve whatever order they arrive in (the
    /// variances are compared as exact integer sums), and
    /// [`S3Index::curve`] reports it. Two groups rather than a full ranking
    /// by variance: inside a group the spreads differ by little more than
    /// sampling noise — the eight first-order components of the paper's
    /// fingerprints span 78–92 in standard deviation — so a finer ranking
    /// would make two samples of one archive disagree, while up to depth `D`
    /// only *which* components are halved shapes the blocks, not in which
    /// order.
    ///
    /// # Panics
    /// If the batch dimension differs from the curve's, or the curve order
    /// is not 8 (byte components), or more than `u32::MAX` records.
    pub fn build(curve: HilbertCurve, records: RecordBatch) -> S3Index {
        Self::build_with_perm(curve, records).0
    }

    /// As [`S3Index::build`], additionally returning the sort permutation:
    /// sorted record `i` was input record `perm[i]`. Lets callers keep
    /// side-tables (e.g. interest-point positions) aligned with the index.
    pub fn build_with_perm(curve: HilbertCurve, records: RecordBatch) -> (S3Index, Vec<u32>) {
        assert_eq!(records.dims(), curve.dims(), "dimension mismatch");
        let wide = wide_components(&records);
        Self::sort_on(curve.split_first(|c| wide[c]), records)
    }

    /// Builds the index with keys on exactly `curve`, axis order included:
    /// computes Hilbert keys, sorts, and constructs the coarse index table.
    /// What an index that grows uses, so every generation keeps the order
    /// its first one was given.
    ///
    /// # Panics
    /// As [`S3Index::build`].
    pub fn build_on(curve: HilbertCurve, records: RecordBatch) -> S3Index {
        Self::sort_on(curve, records).0
    }

    fn sort_on(curve: HilbertCurve, records: RecordBatch) -> (S3Index, Vec<u32>) {
        assert_eq!(records.dims(), curve.dims(), "dimension mismatch");
        assert_eq!(curve.order(), 8, "fingerprints are byte vectors (order 8)");
        assert!(records.len() <= u32::MAX as usize, "too many records");

        let n = records.len();
        // Hilbert key mapping dominates construction; expose it as a span.
        let mut keyed: Vec<(Key256, u32)> = {
            let _sp = span!("index.build.keys", "records" => n as f64);
            (0..n)
                .map(|i| (curve.encode_bytes(records.fingerprint(i)), i as u32))
                .collect()
        };
        // Unstable sort: equal keys are identical fingerprints, order among
        // them is irrelevant.
        keyed.sort_unstable_by_key(|a| a.0);

        let perm: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        let prefixes: Vec<u64> = keyed.iter().map(|(k, _)| prefix_of(&curve, k)).collect();
        // The sort scratch goes before the permuted copy of the records is
        // made, so the two are never resident together.
        drop(keyed);
        let records = records.permuted(&perm);
        (Self::from_sorted_parts(curve, prefixes, records), perm)
    }

    /// Builds an index over records **already sorted by Hilbert key**,
    /// preserving their order exactly — no re-sort, so ties between equal
    /// keys keep the caller's ordering. `prefixes` are the records' key
    /// prefixes, as [`S3Index::prefixes`] gives them. This is the
    /// constructor the shard router uses to carve a contiguous slice of a
    /// sorted parent index into a sub-index whose record order (and
    /// therefore whose answers) stay bit-identical to the parent's slice.
    ///
    /// # Panics
    /// If `prefixes.len() != records.len()`, the dimensions mismatch, or
    /// (debug builds only) the prefixes are not sorted.
    pub fn from_sorted_parts(
        curve: HilbertCurve,
        prefixes: Vec<u64>,
        records: RecordBatch,
    ) -> S3Index {
        assert_eq!(records.dims(), curve.dims(), "dimension mismatch");
        assert_eq!(curve.order(), 8, "fingerprints are byte vectors (order 8)");
        assert!(records.len() <= u32::MAX as usize, "too many records");
        debug_assert!(
            prefixes.windows(2).all(|w| w[0] <= w[1]),
            "prefixes not sorted"
        );
        let run = SortedRun::new(prefixes, records);
        let table = SlotTable::new(&curve, run.prefixes());
        S3Index { curve, run, table }
    }

    /// The curve the index is built on.
    pub fn curve(&self) -> &HilbertCurve {
        &self.curve
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.run.len() == 0
    }

    /// The sorted records (index `i` matches [`Match::index`]).
    pub fn records(&self) -> &RecordBatch {
        self.run.records()
    }

    /// The stored key prefixes, sorted and parallel to
    /// [`S3Index::records`]: the top 64 bits of each record's Hilbert key,
    /// the whole key on a curve of at most 64 key bits.
    pub fn prefixes(&self) -> &[u64] {
        self.run.prefixes()
    }

    /// The Hilbert key of record `i` (index order), recomputed from its
    /// fingerprint: the index stores only its prefix.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn key(&self, i: usize) -> Key256 {
        self.run.key(&self.curve, i)
    }

    /// Locates the half-open record range `[start, end)` covered by a key range.
    pub fn locate(&self, range: &KeyRange) -> (usize, usize) {
        self.run.locate(&self.curve, Some(&self.table), 0, range)
    }

    /// Stage 2 over this index: one pass of `plan`'s ranges over the sorted
    /// records, applying the refinement predicate. With a `ctx`, the scan
    /// checks for cancellation every [`REFINE_CHUNK`] records and stops
    /// early, flagged `cancelled`; if the ctx asks for EXPLAIN, scanned
    /// records and matches are attributed to the plan's blocks.
    pub(crate) fn scan(
        &self,
        q: &[u8],
        plan: &QueryPlan,
        ask: &Ask,
        ctx: Option<&QueryCtx>,
    ) -> QueryScan {
        let mut sp = span!("query.refine");
        let stop = || ctx.is_some_and(|c| c.should_stop());
        let run = self.run.scan(
            &self.curve,
            Some(&self.table),
            &plan.ranges,
            q,
            ask,
            0,
            stop,
        );
        sp.record("ranges", plan.ranges.len() as f64);
        sp.record("entries", run.entries as f64);
        let mut blocks = Vec::new();
        if ctx.is_some_and(|c| c.explains()) {
            let locate = |range: &KeyRange| self.locate(range);
            tally_blocks(&self.curve, plan, locate, 0, &run.matches, &mut blocks);
        }
        QueryScan {
            matches: run.matches,
            stats: QueryStats {
                ranges_scanned: plan.ranges.len(),
                entries_scanned: run.entries,
                cancelled: run.stopped,
                ..QueryStats::default()
            },
            blocks,
            refine_ns: run.ns,
        }
    }

    /// What every query over this index alone runs: plan → scan → epilogue.
    fn run(
        &self,
        q: &[u8],
        ask: &Ask,
        ctx: Option<&QueryCtx>,
        plan: impl FnOnce() -> QueryPlan,
    ) -> QueryResult {
        let scan = |plan: &QueryPlan| self.scan(q, plan, ask, ctx);
        run_query(ask, self.len() as u64, ctx, plan, scan)
    }

    /// Statistical query of expectation α (§II, eq. 1).
    pub fn stat_query(
        &self,
        q: &[u8],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
    ) -> QueryResult {
        self.stat_query_in(q, model, opts, None)
    }

    /// As [`S3Index::stat_query`] under a [`QueryCtx`], which says how the
    /// query runs. Its token and deadline are checked cooperatively at
    /// filter-node and refine-chunk granularity: a stopped query returns the
    /// matches found so far, flagged `cancelled`/`degraded` (conservatively
    /// so if the stop was observed right after the filter, whose selection
    /// may have been cut short); one that never observed a stop is complete
    /// and unflagged. If the ctx asks for EXPLAIN ([`QueryCtx::explain`])
    /// the result carries its report; matches and counters are bit-identical
    /// either way.
    ///
    /// Only the best-first filter is interruptible; the threshold filter
    /// (a benchmarking baseline) runs to completion before the check.
    pub fn stat_query_ctx(
        &self,
        q: &[u8],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        ctx: &QueryCtx,
    ) -> QueryResult {
        self.stat_query_in(q, model, opts, Some(ctx))
    }

    pub(crate) fn stat_query_in(
        &self,
        q: &[u8],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        ctx: Option<&QueryCtx>,
    ) -> QueryResult {
        self.run(q, &Ask::stat(opts), ctx, || {
            QueryPlan::stat(&self.curve, 0, q, model, opts, ctx)
        })
    }

    /// Exact ε-range query through the index: geometric block filter plus
    /// distance refinement. Recall is exact (the filter is complete).
    pub fn range_query(&self, q: &[u8], eps: f64, depth: u32) -> QueryResult {
        self.run(q, &Ask::range(eps, depth), None, || {
            QueryPlan::range(&self.curve, 0, q, eps, depth, None)
        })
    }

    /// ε-range query through the classical bounding-box filter (the only
    /// geometric filter a Lawder-style rectangle-query structure can apply
    /// to a sphere, §IV). Recall is exact; cost degenerates toward a scan in
    /// high dimension — the baseline the paper's Fig. 6 speed-ups compare
    /// against. It scans every block its box filter selects: such a
    /// structure has no ball distance to prune them with.
    pub fn range_query_bbox(&self, q: &[u8], eps: f64, depth: u32) -> QueryResult {
        self.run(q, &Ask::range(eps, depth), None, || {
            QueryPlan::new(&self.curve, 0, None, UNPRUNED, || {
                select_blocks_bbox(&self.curve, q, depth, eps, usize::MAX)
            })
        })
    }

    /// Sequential-scan ε-range query — the reference baseline of Fig. 7,
    /// through the same run kernel as the index's own refinement.
    pub fn seq_scan(&self, q: &[u8], eps: f64) -> QueryResult {
        let everything = KeyRange {
            lo: Key256::ZERO,
            hi: KeyBound::End,
        };
        let ask = Ask::range(eps, 0);
        let run = self
            .run
            .scan(&self.curve, None, [&everything], q, &ask, 0, || false);
        QueryResult {
            matches: run.matches,
            stats: QueryStats {
                entries_scanned: run.entries,
                ranges_scanned: 1,
                ..QueryStats::default()
            },
            explain: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;
    use crate::fingerprint::dist_sq;

    /// Deterministic pseudo-random batch (avoids a rand dependency here).
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

    fn small_index() -> S3Index {
        let curve = HilbertCurve::new(4, 8).unwrap();
        S3Index::build(curve, synthetic_batch(4, 3000, 42))
    }

    /// Every record's full key, in index order.
    fn keys(idx: &S3Index) -> Vec<Key256> {
        (0..idx.len()).map(|i| idx.key(i)).collect()
    }

    #[test]
    fn build_sorts_by_key() {
        for idx in [
            small_index(),
            S3Index::build(HilbertCurve::paper(), synthetic_batch(20, 3000, 42)),
        ] {
            assert_eq!(idx.len(), 3000);
            let keys = keys(&idx);
            for w in keys.windows(2) {
                assert!(w[0] <= w[1], "keys must be sorted");
            }
            let prefixes: Vec<u64> = keys.iter().map(|k| prefix_of(idx.curve(), k)).collect();
            assert_eq!(idx.prefixes(), prefixes);
        }
    }

    #[test]
    fn build_preserves_record_association() {
        // Each record's (fingerprint, id, tc) triple must survive the sort.
        let curve = HilbertCurve::new(3, 8).unwrap();
        let mut batch = RecordBatch::new(3);
        batch.push(&[9, 9, 9], 1, 11);
        batch.push(&[0, 0, 0], 2, 22);
        batch.push(&[255, 0, 255], 3, 33);
        let idx = S3Index::build(curve, batch);
        for i in 0..3 {
            let r = idx.records().record(i);
            match r.id {
                1 => assert_eq!((r.fingerprint, r.tc), (&[9u8, 9, 9][..], 11)),
                2 => assert_eq!((r.fingerprint, r.tc), (&[0u8, 0, 0][..], 22)),
                3 => assert_eq!((r.fingerprint, r.tc), (&[255u8, 0, 255][..], 33)),
                other => panic!("unexpected id {other}"),
            }
            // Stored prefix must be the fingerprint's key's, on the index's
            // curve (whose 24 key bits the prefix holds whole).
            let key = idx.curve().encode_bytes(r.fingerprint);
            assert_eq!(idx.prefixes()[i], key.low_u128() as u64);
        }
    }

    #[test]
    fn build_splits_the_wide_components_first() {
        // Components 1 and 3 spread over the byte range, 0 and 2 stay within
        // 8 of the centre.
        let mut batch = synthetic_batch(4, 2000, 11);
        let mut narrowed = RecordBatch::new(4);
        for i in 0..batch.len() {
            let r = batch.record(i);
            let fp: Vec<u8> = (0..4)
                .map(|c| {
                    if c % 2 == 0 {
                        124 + r.fingerprint[c] % 8
                    } else {
                        r.fingerprint[c]
                    }
                })
                .collect();
            narrowed.push(&fp, r.id, r.tc);
        }
        batch = narrowed;
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build(curve.clone(), batch.clone());
        // The identity curve splits 0, 3, 2, 1; the wide ones go first, each
        // group keeping that order.
        assert_eq!(idx.curve().split_order(), [3, 1, 0, 2]);
        // A property of the record set: arrival order changes nothing.
        let reversed: Vec<u32> = (0..batch.len() as u32).rev().collect();
        let again = S3Index::build(curve.clone(), batch.permuted(&reversed));
        assert_eq!(again.curve(), idx.curve());
        assert_eq!(keys(&again), keys(&idx));
        assert_eq!(again.prefixes(), idx.prefixes());
        // Whatever order the caller's curve had.
        let other = curve.with_axes(&[2, 3, 0, 1]).unwrap();
        assert_eq!(S3Index::build(other, batch.clone()).curve(), idx.curve());
        // `build_on` takes the curve as given.
        assert_eq!(S3Index::build_on(curve.clone(), batch).curve(), &curve);
        // No spread to rank: the identity curve.
        assert_eq!(
            S3Index::build(curve.clone(), RecordBatch::new(4)).curve(),
            &curve
        );
        let mut flat = RecordBatch::new(4);
        for i in 0..10 {
            flat.push(&[7, 7, 7, 7], i, 0);
        }
        assert_eq!(S3Index::build(curve.clone(), flat).curve(), &curve);
    }

    #[test]
    fn locate_full_curve_covers_everything() {
        let idx = small_index();
        let range = KeyRange {
            lo: Key256::ZERO,
            hi: KeyBound::End,
        };
        assert_eq!(idx.locate(&range), (0, idx.len()));
    }

    #[test]
    fn locate_agrees_with_linear_scan() {
        let idx = small_index();
        let keys = keys(&idx);
        // Probe a few numeric ranges.
        for (lo_i, hi_i) in [(0usize, 10), (5, 2995), (1000, 2000)] {
            let lo = keys[lo_i];
            let hi = keys[hi_i];
            let range = KeyRange {
                lo,
                hi: KeyBound::Excl(hi),
            };
            let (s, e) = idx.locate(&range);
            let s_lin = keys.iter().position(|k| *k >= lo).unwrap();
            let e_lin = keys.iter().position(|k| *k >= hi).unwrap();
            assert_eq!((s, e), (s_lin, e_lin));
        }
    }

    #[test]
    fn range_query_matches_seq_scan_exactly() {
        // The geometric filter is complete, so the index range query must
        // return exactly the sequential scan's results.
        let idx = small_index();
        let q = [100u8, 150, 20, 240];
        for eps in [10.0, 60.0, 150.0] {
            for depth in [4u32, 8, 12] {
                let a = idx.range_query(&q, eps, depth);
                let b = idx.seq_scan(&q, eps);
                let mut ai: Vec<usize> = a.matches.iter().map(|m| m.index).collect();
                let mut bi: Vec<usize> = b.matches.iter().map(|m| m.index).collect();
                ai.sort_unstable();
                bi.sort_unstable();
                assert_eq!(ai, bi, "eps={eps} depth={depth}");
            }
        }
    }

    #[test]
    fn bbox_range_query_matches_exact_range_query_results() {
        let idx = small_index();
        let q = [90u8, 180, 60, 30];
        for eps in [40.0, 120.0] {
            let a = idx.range_query(&q, eps, 8);
            let b = idx.range_query_bbox(&q, eps, 8);
            let mut ai: Vec<usize> = a.matches.iter().map(|m| m.index).collect();
            let mut bi: Vec<usize> = b.matches.iter().map(|m| m.index).collect();
            ai.sort_unstable();
            bi.sort_unstable();
            assert_eq!(ai, bi, "recall must be identical at eps={eps}");
            // The box filter can only scan at least as much as the exact ball
            // filter (the box contains the ball).
            assert!(b.stats.entries_scanned >= a.stats.entries_scanned);
            assert!(b.stats.blocks_selected >= a.stats.blocks_selected);
        }
    }

    #[test]
    fn stat_query_returns_block_contents() {
        let idx = small_index();
        let model = IsotropicNormal::new(4, 15.0);
        let q = [128u8, 128, 128, 128];
        let opts = StatQueryOpts::new(0.9, 8);
        let res = idx.stat_query(&q, &model, &opts);
        assert!(res.stats.mass >= 0.9);
        assert!(res.stats.blocks_selected > 0);
        assert_eq!(res.stats.entries_scanned, res.matches.len());
        // Ranges after merging cannot exceed block count.
        assert!(res.stats.ranges_scanned <= res.stats.blocks_selected);
    }

    #[test]
    fn stat_query_finds_exact_duplicate() {
        // Insert a known fingerprint; a statistical query on the exact value
        // must retrieve it for reasonable alpha (its cell has maximal mass).
        let curve = HilbertCurve::new(4, 8).unwrap();
        let mut batch = synthetic_batch(4, 2000, 7);
        batch.push(&[77, 88, 99, 111], 999, 1234);
        let idx = S3Index::build(curve, batch);
        let model = IsotropicNormal::new(4, 10.0);
        let res = idx.stat_query(&[77, 88, 99, 111], &model, &StatQueryOpts::new(0.8, 10));
        assert!(
            res.matches.iter().any(|m| m.id == 999 && m.tc == 1234),
            "exact duplicate must be retrieved"
        );
    }

    #[test]
    fn stat_query_threshold_algo_equivalent_retrieval() {
        let idx = small_index();
        let model = IsotropicNormal::new(4, 12.0);
        // Interior query: all components several σ away from the cube
        // boundary, so the full α is achievable.
        let q = [60u8, 190, 130, 90];
        let mut bf_opts = StatQueryOpts::new(0.85, 10);
        let mut th_opts = bf_opts;
        bf_opts.algo = FilterAlgo::BestFirst;
        th_opts.algo = FilterAlgo::Threshold { iterations: 30 };
        let bf = idx.stat_query(&q, &model, &bf_opts);
        let th = idx.stat_query(&q, &model, &th_opts);
        assert!(th.stats.mass >= 0.85);
        // The threshold result is a superset (B(tmax) ⊇ minimal set).
        let bf_set: std::collections::HashSet<usize> = bf.matches.iter().map(|m| m.index).collect();
        let th_set: std::collections::HashSet<usize> = th.matches.iter().map(|m| m.index).collect();
        assert!(bf_set.is_subset(&th_set));
    }

    #[test]
    fn lower_bound_from_agrees_with_the_table_search() {
        // Distinct keys, and runs of duplicate keys (50 fingerprints 40 times
        // over), each searched with its table and bare — as a section or an
        // overlay holds its run.
        let distinct = small_index();
        let few = synthetic_batch(4, 50, 9);
        let mut dups = RecordBatch::new(4);
        for i in 0..2000 {
            dups.push(few.fingerprint(i % 50), i as u32, 0);
        }
        let dups = S3Index::build(HilbertCurve::new(4, 8).unwrap(), dups);
        for idx in [&distinct, &dups] {
            let n = idx.len();
            let keys = keys(idx);
            for table in [Some(&idx.table), None] {
                // Probe keys just below, at and just above stored keys, from
                // every kind of starting point: exact previous answer, far
                // behind, just behind, just past (not ascending), well past
                // and the end of the run.
                for i in (0..n).step_by(7) {
                    let stored = keys[i];
                    for key in [
                        stored.saturating_sub_u64(1),
                        stored,
                        stored.wrapping_add_u64(1),
                    ] {
                        let want = keys.iter().take_while(|k| **k < key).count();
                        for from in [0, want.saturating_sub(3), want.saturating_sub(1), want]
                            .into_iter()
                            .chain([want + 1, want + 5, n].map(|f| f.min(n)))
                        {
                            let got = idx.run.lower_bound_from(idx.curve(), table, from, &key);
                            assert_eq!(got, want, "i={i} from={from} table={}", table.is_some());
                        }
                        let to_end = KeyRange {
                            lo: key,
                            hi: KeyBound::End,
                        };
                        assert_eq!(idx.run.locate(idx.curve(), table, 0, &to_end), (want, n));
                    }
                }
            }
        }
    }

    /// Records in clusters: each cluster a random centre, its records
    /// the centre with only the low `b` bits of each component redrawn,
    /// `b` in 0..=8 per cluster — so exact duplicates (b = 0), records
    /// sharing a 64-bit prefix but not their key (b ≤ 4 on the paper's
    /// curve: its top 80 key bits are the top four bits of every
    /// component) and unrelated records (b = 8).
    fn prefix_clusters(dims: usize, n: usize, clusters: usize, seed: u64) -> RecordBatch {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let centres: Vec<(Vec<u8>, u32)> = (0..clusters)
            .map(|_| {
                let centre = (0..dims).map(|_| next() as u8).collect();
                (centre, (next() % 9) as u32)
            })
            .collect();
        let mut batch = RecordBatch::with_capacity(dims, n);
        for i in 0..n {
            let (centre, bits) = &centres[next() as usize % clusters];
            let low = ((1u32 << bits) - 1) as u8;
            let fp: Vec<u8> = centre
                .iter()
                .map(|&c| (c & !low) | (next() as u8 & low))
                .collect();
            batch.push(&fp, i as u32, 0);
        }
        batch
    }

    /// Records sharing a prefix but not a key are placed by their full
    /// keys: a bound inside such a run of equal prefixes lands inside it.
    #[test]
    fn a_bound_inside_a_run_of_equal_prefixes_lands_inside_it() {
        let curve = HilbertCurve::paper();
        let mut batch = RecordBatch::new(20);
        for i in 0..64u8 {
            // One centre, the low two bits of four components varied.
            let mut fp = [0x5Au8; 20];
            for (c, x) in fp.iter_mut().take(4).enumerate() {
                *x = (*x & !3) | ((i >> (2 * c)) & 3);
            }
            batch.push(&fp, u32::from(i), 0);
        }
        let idx = S3Index::build_on(curve.clone(), batch);
        let keys = keys(&idx);
        assert!(idx.prefixes().iter().all(|&p| p == idx.prefixes()[0]));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "distinct keys");
        for i in [1, 20, 63] {
            for table in [Some(&idx.table), None] {
                assert_eq!(idx.run.lower_bound_from(&curve, table, 0, &keys[i]), i);
                let past = keys[i].wrapping_add_u64(1);
                assert_eq!(idx.run.lower_bound_from(&curve, table, 0, &past), i + 1);
            }
        }
    }

    mod prefix_locate {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The prefix locate against a full-key oracle: every range
            /// bound a plan of any depth `1..=key_bits` can hand it (below
            /// 64 and above), and bounds just beside stored keys, on the
            /// paper's curve (160 key bits) and on a 64-bit curve (the
            /// prefix is the key), with and without the slot table, from
            /// every kind of starting point.
            #[test]
            fn prefix_locate_equals_the_full_key_oracle(
                paper in any::<bool>(),
                n in 1usize..300,
                clusters in 1usize..10,
                seed in any::<u64>(),
            ) {
                let (curve, dims) = if paper {
                    (HilbertCurve::paper(), 20)
                } else {
                    (HilbertCurve::new(8, 8).unwrap(), 8)
                };
                let idx = S3Index::build(curve, prefix_clusters(dims, n, clusters, seed));
                let curve = idx.curve();
                let keys = keys(&idx);
                let below = |k: &Key256| keys.iter().take_while(|x| *x < k).count();
                let bits = curve.key_bits();
                let mut probes = 0;
                let step = (n / 6).max(1);
                for depth in 1..=bits {
                    let shift = bits - depth;
                    let last_rank = Key256::low_mask(depth);
                    for i in (0..n).step_by(step) {
                        let rank = keys[i].shr(shift);
                        let first = rank.saturating_sub_u64(1);
                        let last = if rank == last_rank { rank } else { rank.wrapping_add_u64(1) };
                        let mut ranges = vec![
                            KeyRange::of_ranks(curve, depth, &rank, &rank),
                            KeyRange::of_ranks(curve, depth, &first, &last),
                        ];
                        if depth == bits {
                            // Bounds beside the stored key, any bit set.
                            let lo = keys[i].saturating_sub_u64(1);
                            let hi = keys[i].wrapping_add_u64(1);
                            ranges.push(KeyRange { lo, hi: KeyBound::Excl(hi) });
                            ranges.push(KeyRange { lo: hi, hi: KeyBound::End });
                        }
                        for range in &ranges {
                            let start = below(&range.lo);
                            let end = match range.hi {
                                KeyBound::Excl(hi) => below(&hi).max(start),
                                KeyBound::End => n,
                            };
                            for table in [Some(&idx.table), None] {
                                for from in [0, start.saturating_sub(1), start, (start + 3).min(n), n] {
                                    let got = idx.run.locate(curve, table, from, range);
                                    prop_assert_eq!(
                                        got, (start, end),
                                        "depth {} record {} from {} table {}",
                                        depth, i, from, table.is_some()
                                    );
                                    probes += 1;
                                }
                                let lb = idx.run.lower_bound_from(curve, table, 0, &range.lo);
                                prop_assert_eq!(lb, start);
                            }
                        }
                    }
                }
                prop_assert!(probes > 0);
            }
        }
    }

    #[test]
    fn refine_range_filters_by_distance() {
        let idx = small_index();
        let model = IsotropicNormal::new(4, 20.0);
        let q = [200u8, 40, 90, 170];
        let mut opts = StatQueryOpts::new(0.9, 8);
        opts.refine = Refine::Range(50.0);
        let res = idx.stat_query(&q, &model, &opts);
        for m in &res.matches {
            let d2 = m.dist_sq.expect("range refinement computes distances");
            assert!(d2 <= 2500.0);
        }
        // All refinement returns at least as many.
        opts.refine = Refine::All;
        let all = idx.stat_query(&q, &model, &opts);
        assert!(all.matches.len() >= res.matches.len());
    }

    #[test]
    fn empty_index_queries_return_empty() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let idx = S3Index::build(curve, RecordBatch::new(4));
        assert!(idx.is_empty());
        let model = IsotropicNormal::new(4, 10.0);
        let res = idx.stat_query(&[0, 0, 0, 0], &model, &StatQueryOpts::new(0.9, 6));
        assert!(res.matches.is_empty());
        let res = idx.range_query(&[0, 0, 0, 0], 100.0, 6);
        assert!(res.matches.is_empty());
    }

    #[test]
    fn single_record_index() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let mut batch = RecordBatch::new(4);
        batch.push(&[1, 2, 3, 4], 5, 6);
        let idx = S3Index::build(curve, batch);
        let model = IsotropicNormal::new(4, 10.0);
        let res = idx.stat_query(&[1, 2, 3, 4], &model, &StatQueryOpts::new(0.5, 4));
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.matches[0].id, 5);
    }

    #[test]
    fn duplicate_fingerprints_all_returned() {
        let curve = HilbertCurve::new(4, 8).unwrap();
        let mut batch = RecordBatch::new(4);
        for i in 0..10 {
            batch.push(&[50, 60, 70, 80], i, i * 100);
        }
        let idx = S3Index::build(curve, batch);
        let model = IsotropicNormal::new(4, 5.0);
        let res = idx.stat_query(&[50, 60, 70, 80], &model, &StatQueryOpts::new(0.7, 8));
        assert_eq!(res.matches.len(), 10, "all duplicates share one cell");
    }

    /// `n` records at the paper's D = 20: every other one a near-duplicate
    /// (±24 a component) of one of 30 centres, so an ε-range keeps some
    /// records of a run and rejects most, and the rest uniform.
    fn clustered_batch_d20(n: usize) -> RecordBatch {
        let uniform = synthetic_batch(20, n, 7);
        let centres = synthetic_batch(20, 30, 8);
        let mut batch = RecordBatch::with_capacity(20, n);
        for i in 0..n {
            let fp: Vec<u8> = if i % 2 == 0 {
                let noise = uniform.fingerprint(i);
                let centre = centres.fingerprint(i % 30);
                let jitter = |(&c, &r): (&u8, &u8)| i16::from(c) + i16::from(r % 49) - 24;
                centre
                    .iter()
                    .zip(noise)
                    .map(|p| jitter(p).clamp(0, 255) as u8)
                    .collect()
            } else {
                uniform.fingerprint(i).to_vec()
            };
            batch.push(&fp, i as u32, (i * 3) as u32);
        }
        batch
    }

    /// Matches identical in the same order, counters identical (compared
    /// through `Debug`, so a geometric filter's NaN target compares equal).
    fn assert_same(got: &QueryResult, want: &QueryResult, case: &str) {
        assert_eq!(got.matches, want.matches, "{case}");
        assert_eq!(
            format!("{:?}", got.stats),
            format!("{:?}", want.stats),
            "{case}"
        );
    }

    /// Every engine's refinement through the run kernel answers exactly as
    /// through the per-record predicate: `stat_query` under each
    /// refinement, `range_query`, `seq_scan` against the loop it replaced,
    /// the `DiskIndex` batch and `DynamicIndex` (main and overlay).
    #[test]
    fn run_kernel_answers_as_the_per_record_oracle() {
        use crate::dynamic::DynamicIndex;
        use crate::pseudo_disk::{DiskIndex, WriteOpts};
        use crate::storage::MemStorage;

        let curve = HilbertCurve::new(20, 8).unwrap();
        let batch = clustered_batch_d20(6000);
        let idx = S3Index::build(curve.clone(), batch.clone());
        let model = IsotropicNormal::new(20, 20.0);
        let queries: Vec<Vec<u8>> = (0..12)
            .map(|i| batch.fingerprint(i * 2 + 1000).to_vec())
            .chain((0..4).map(|i| batch.fingerprint(i * 2 + 1).to_vec()))
            .collect();
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let depth = 10;
        let mut refines = vec![Refine::All];
        refines.extend([0.0, 60.0, 100.07, 1e6, f64::INFINITY, f64::NAN].map(Refine::Range));

        let bytes = DiskIndex::encode_to_vec(&idx, WriteOpts::default()).unwrap();
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone())))
            .unwrap()
            .with_threads(1);
        let budget = disk.min_section_bytes().max(bytes.len() as u64 / 4);
        let mut main = RecordBatch::new(20);
        for i in (0..batch.len()).filter(|i| i % 5 != 0) {
            let r = batch.record(i);
            main.push(r.fingerprint, r.id, r.tc);
        }
        let mut dynamic = DynamicIndex::new(S3Index::build(curve, main), 1.0);
        for i in (0..batch.len()).step_by(5) {
            let r = batch.record(i);
            dynamic.insert(r.fingerprint, r.id, r.tc);
        }
        assert_eq!(
            dynamic.overlay_len(),
            1200,
            "no merge: a fifth stays in the overlay"
        );

        let mut kept = 0;
        for refine in refines {
            let mut opts = StatQueryOpts::new(0.9, depth);
            opts.refine = refine;
            for (qi, q) in qrefs.iter().enumerate() {
                let case = format!("{refine:?} q{qi}");
                let run = || idx.stat_query(q, &model, &opts);
                let want = per_record_oracle::with(run);
                assert_same(&run(), &want, &format!("stat_query {case}"));
                kept += want.matches.len();
                let run = || dynamic.stat_query(q, &model, &opts);
                assert_same(
                    &run(),
                    &per_record_oracle::with(run),
                    &format!("dynamic {case}"),
                );
            }
            let run = || {
                disk.stat_query_batch(&qrefs, &model, &opts, budget)
                    .unwrap()
            };
            let (got, want) = (run(), per_record_oracle::with(run));
            assert_eq!(got.matches, want.matches, "disk {refine:?}");
            assert_eq!(got.stats, want.stats, "disk {refine:?}");
        }
        assert!(kept > 0, "no refinement kept a record");

        for eps in [0.0, 60.0, 100.07, 1e6, f64::INFINITY, f64::NAN] {
            for (qi, q) in qrefs.iter().enumerate() {
                let case = format!("eps {eps} q{qi}");
                // The sequential loop the baseline ran before the kernel.
                let eps_sq = eps * eps;
                let want: Vec<Match> = (0..idx.len())
                    .filter_map(|i| {
                        let d2 = dist_sq(q, idx.records().fingerprint(i)) as f64;
                        (d2 <= eps_sq).then(|| Match {
                            index: i,
                            id: idx.records().id(i),
                            tc: idx.records().tc(i),
                            dist_sq: Some(d2),
                        })
                    })
                    .collect();
                let got = idx.seq_scan(q, eps);
                assert_eq!(got.matches, want, "seq_scan {case}");
                assert_eq!(got.stats.entries_scanned, idx.len(), "seq_scan {case}");
                if eps.is_nan() {
                    continue; // no geometric filter takes a NaN radius
                }
                let run = || idx.range_query(q, eps, depth);
                assert_same(
                    &run(),
                    &per_record_oracle::with(run),
                    &format!("range {case}"),
                );
                let run = || dynamic.range_query(q, eps, depth);
                assert_same(
                    &run(),
                    &per_record_oracle::with(run),
                    &format!("dynamic {case}"),
                );
            }
            if eps.is_nan() {
                continue;
            }
            let run = || {
                disk.range_query_batch(&qrefs, eps, depth, budget, None)
                    .unwrap()
            };
            let (got, want) = (run(), per_record_oracle::with(run));
            assert_eq!(got.matches, want.matches, "disk eps {eps}");
            assert_eq!(
                format!("{:?}", got.stats),
                format!("{:?}", want.stats),
                "disk eps {eps}"
            );
        }
    }

    /// Counters equal but for what the scan visited (through `Debug`, so
    /// a geometric filter's NaN target compares equal); adds the records
    /// `got` and `want` scanned to `scanned`.
    fn same_but_scan(got: &QueryStats, want: &QueryStats, case: &str, scanned: &mut [usize; 2]) {
        let scrub = |st: &QueryStats| {
            format!(
                "{:?}",
                QueryStats {
                    entries_scanned: 0,
                    ranges_scanned: 0,
                    ..*st
                }
            )
        };
        assert_eq!(scrub(got), scrub(want), "{case}");
        assert!(got.entries_scanned <= want.entries_scanned, "{case}");
        scanned[0] += got.entries_scanned;
        scanned[1] += want.entries_scanned;
    }

    /// One query run as planned and under the unpruned oracle: the same
    /// matches, the same counters but the scan's. Returns the matches.
    fn prune_is_invisible(
        case: &str,
        scanned: &mut [usize; 2],
        run: impl Fn() -> QueryResult,
    ) -> usize {
        use crate::plan::unpruned_oracle;
        let (got, want) = (run(), unpruned_oracle::with(&run));
        assert_eq!(got.matches, want.matches, "{case}");
        same_but_scan(&got.stats, &want.stats, case, scanned);
        got.matches.len()
    }

    /// [`prune_is_invisible`] for a batch.
    fn batch_prune_is_invisible(
        case: &str,
        scanned: &mut [usize; 2],
        run: impl Fn() -> Result<crate::pseudo_disk::BatchResult, crate::error::IndexError>,
    ) {
        use crate::plan::unpruned_oracle;
        let (got, want) = (run().unwrap(), unpruned_oracle::with(&run).unwrap());
        assert_eq!(got.matches, want.matches, "{case}");
        for (g, w) in got.stats.iter().zip(&want.stats) {
            same_but_scan(g, w, case, scanned);
        }
    }

    /// The ball prune is invisible in every answer: under `Refine::Range(ε)`
    /// `S3Index`, a `DiskIndex` batch, `DynamicIndex` (main and overlay) and
    /// `DurableIndex` (disk generation and overlay) return the matches of
    /// the unpruned plan bit for bit, with the same counters but for the
    /// records and ranges no longer scanned — and EXPLAIN still reconciles.
    #[test]
    fn ball_prune_answers_as_the_unpruned_plan() {
        use crate::durable::{DurableIndex, DurableOptions};
        use crate::dynamic::DynamicIndex;
        use crate::pseudo_disk::{DiskIndex, WriteOpts};
        use crate::storage::{MemStorage, SharedMemStorage};

        let curve = HilbertCurve::new(20, 8).unwrap();
        let batch = clustered_batch_d20(6000);
        let idx = S3Index::build(curve.clone(), batch.clone());
        let model = IsotropicNormal::new(20, 20.0);
        let queries: Vec<Vec<u8>> = (0..12)
            .map(|i| batch.fingerprint(i * 2 + 1000).to_vec())
            .chain((0..4).map(|i| batch.fingerprint(i * 2 + 1).to_vec()))
            .collect();
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let depth = 10;

        let bytes = DiskIndex::encode_to_vec(&idx, WriteOpts::default()).unwrap();
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
        let budget = disk.min_section_bytes().max(bytes.len() as u64 / 4);
        // Four fifths in the main index (the durable one's disk
        // generation), the last fifth in the overlays.
        let mut main = RecordBatch::new(20);
        for i in (0..batch.len()).filter(|i| i % 5 != 0) {
            let r = batch.record(i);
            main.push(r.fingerprint, r.id, r.tc);
        }
        let mut dynamic = DynamicIndex::new(S3Index::build(curve.clone(), main.clone()), 1.0);
        let opts = DurableOptions {
            merge_fraction: 1.0,
            ..DurableOptions::default()
        };
        let (data, wal) = (SharedMemStorage::new(), SharedMemStorage::new());
        let mut durable = DurableIndex::create(Box::new(data), Box::new(wal), curve, opts).unwrap();
        for i in 0..main.len() {
            let r = main.record(i);
            durable.insert(r.fingerprint, r.id, r.tc).unwrap();
        }
        durable.merge().unwrap();
        for i in (0..batch.len()).step_by(5) {
            let r = batch.record(i);
            dynamic.insert(r.fingerprint, r.id, r.tc);
            durable.insert(r.fingerprint, r.id, r.tc).unwrap();
        }
        assert_eq!((dynamic.overlay_len(), durable.pending_len()), (1200, 1200));

        let mut scanned = [0, 0];
        let mut kept = 0;
        for eps in [0.0, 100.07, 1e6, f64::INFINITY, f64::NAN] {
            let mut opts = StatQueryOpts::new(0.9, depth);
            opts.refine = Refine::Range(eps);
            for (qi, q) in qrefs.iter().enumerate() {
                let case = format!("eps {eps} q{qi}");
                kept += prune_is_invisible(&format!("stat {case}"), &mut scanned, || {
                    idx.stat_query(q, &model, &opts)
                });
                prune_is_invisible(&format!("dynamic {case}"), &mut scanned, || {
                    dynamic.stat_query(q, &model, &opts)
                });
                let ctx = QueryCtx::default().explain();
                let rep = idx.stat_query_ctx(q, &model, &opts, &ctx).explain.unwrap();
                assert!(rep.reconciles(), "{case}: {}", rep.to_text());
                if eps.is_nan() {
                    continue; // no geometric filter takes a NaN radius
                }
                prune_is_invisible(&format!("range {case}"), &mut scanned, || {
                    idx.range_query(q, eps, depth)
                });
                prune_is_invisible(&format!("dynamic range {case}"), &mut scanned, || {
                    dynamic.range_query(q, eps, depth)
                });
            }
            batch_prune_is_invisible(&format!("disk eps {eps}"), &mut scanned, || {
                disk.stat_query_batch(&qrefs, &model, &opts, budget)
            });
            batch_prune_is_invisible(&format!("durable eps {eps}"), &mut scanned, || {
                durable.stat_query_batch(&qrefs, &model, &opts, budget)
            });
            let ctx = QueryCtx::default().explain();
            let res = disk
                .stat_query_batch_ctx(&qrefs, &model, &opts, budget, &ctx)
                .unwrap();
            for rep in &res.reports {
                assert!(rep.reconciles(), "disk eps {eps}: {}", rep.to_text());
            }
            if eps.is_nan() {
                continue;
            }
            batch_prune_is_invisible(&format!("disk range eps {eps}"), &mut scanned, || {
                disk.range_query_batch(&qrefs, eps, depth, budget, None)
            });
            batch_prune_is_invisible(&format!("durable range eps {eps}"), &mut scanned, || {
                durable.range_query_batch(&qrefs, eps, depth, budget)
            });
        }
        assert!(kept > 0, "no query kept a record");
        let [pruned, unpruned] = scanned;
        assert!(pruned < unpruned, "nothing pruned of {unpruned} records");
    }

    /// What the prune drops is exactly what the run kernel would reject: no
    /// record of a selected block beyond `⌊ε²⌋` lies within it, and every
    /// block it keeps lies within it.
    #[test]
    fn no_dropped_block_holds_a_record_within_eps() {
        use crate::filter::select_blocks_stat;
        use crate::plan::reach;

        let batch = clustered_batch_d20(6000);
        let idx = S3Index::build(HilbertCurve::new(20, 8).unwrap(), batch.clone());
        let model = IsotropicNormal::new(20, 20.0);
        let opts = StatQueryOpts::new(0.9, 10);
        let mut dropped = 0;
        for qi in 0..16 {
            let q = batch.fingerprint(qi * 7 + 1000);
            let selection = select_blocks_stat(idx.curve(), &model, q, &opts, None);
            for eps in [0.0, 60.0, 100.07, 140.0] {
                let bound = reach(Refine::Range(eps)).unwrap();
                assert_eq!(bound, (eps * eps).floor() as u64);
                for sb in &selection.blocks {
                    let within = sb.within(Some(bound));
                    assert_eq!(within, u64::from(sb.dist_sq()) <= bound);
                    if within {
                        continue;
                    }
                    dropped += 1;
                    let (lo, hi) = idx.locate(&sb.key_range(idx.curve()));
                    for i in lo..hi {
                        let d2 = dist_sq(q, idx.records().fingerprint(i));
                        assert!(d2 > bound, "q{qi} eps {eps}: record {i} at {d2}");
                        assert!(d2 >= u64::from(sb.dist_sq()), "q{qi}: record {i}");
                    }
                }
            }
        }
        assert!(dropped > 0, "no block was dropped");
    }

    /// The cancellation poll falls every `REFINE_CHUNK` records however the
    /// records are cut into ranges — the count runs across `scan` calls —
    /// and under every refinement.
    #[test]
    fn refine_polls_every_chunk_across_short_ranges() {
        let batch = synthetic_batch(20, 10_000, 3);
        let q = batch.fingerprint(0).to_vec();
        for refine in [Refine::All, Refine::Range(1e9)] {
            for range_len in [1, 7, 100, REFINE_CHUNK - 1, REFINE_CHUNK, 10_000] {
                let case = format!("{refine:?} ranges of {range_len}");
                let hits = std::cell::Cell::new(0usize);
                let polls = std::cell::RefCell::new(Vec::new());
                let stop = || {
                    polls.borrow_mut().push(hits.get());
                    false
                };
                let mut refiner = Refiner::new(&q, refine);
                for lo in (0..batch.len()).step_by(range_len) {
                    let hi = (lo + range_len).min(batch.len());
                    let fps = batch.fingerprint_bytes();
                    assert!(refiner.scan(fps, lo, hi, stop, |_, _| hits.set(hits.get() + 1)));
                }
                assert_eq!(hits.get(), batch.len(), "{case}: every record kept");
                assert_eq!(refiner.entries, batch.len(), "{case}");
                // Polled before the 4096th record and every 4096 after.
                let want: Vec<usize> = (1..).map(|c| c * REFINE_CHUNK - 1).take(2).collect();
                assert_eq!(*polls.borrow(), want, "{case}");
            }
        }

        // A stop cuts the run at the poll: exactly the records before it
        // are refined, and the scan reports it.
        let mut refiner = Refiner::new(&q, Refine::All);
        let mut kept = 0;
        let mut go_on = true;
        for lo in (0..batch.len()).step_by(100) {
            go_on = refiner.scan(
                batch.fingerprint_bytes(),
                lo,
                lo + 100,
                || true,
                |_, _| kept += 1,
            );
            if !go_on {
                break;
            }
        }
        assert!(!go_on);
        assert_eq!(
            (kept, refiner.entries),
            (REFINE_CHUNK - 1, REFINE_CHUNK - 1)
        );
    }
}
