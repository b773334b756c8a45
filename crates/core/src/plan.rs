//! A query is a plan, then a scan, then an epilogue — for every engine.
//!
//! The paper splits a search into a database-independent filter and a
//! refinement scan (`T(p) = T_f(p) + T_r(p)`, §IV-A) and, on the
//! pseudo-disk, filters all `N_sig` queries before it streams a single
//! section (§IV-B, eq. 5). This module is that shape, once:
//!
//! 1. **Plan** ([`QueryPlan`], [`Plan`] for a batch) — the filter's merged
//!    key ranges and its side of the counters. It never looks at a record,
//!    so the same plan serves every source the records live in. Under
//!    `Refine::Range(ε)` it merges only the selected blocks whose box lies
//!    within ε of the query (the *ball prune*, [`reach`]): the others hold
//!    no record the scan could keep.
//! 2. **Scan** ([`QueryScan`], [`Scan`] for a batch) — one pass of a plan
//!    over one sorted run of records: `S3Index::scan`, `DiskIndex::scan`,
//!    an insert overlay. A shard replica scans the router's plan; a durable
//!    index scans its disk generation and its overlay against one plan.
//!    Scans of one plan add up ([`Scan::absorb`]).
//! 3. **Epilogue** (the tail of [`run_query`]; [`Plan::finish`]) — joins
//!    both sides of the counters, recomputes the
//!    `degraded`/`cancelled`/`deadline_hit` flags from that evidence, folds
//!    the query into [`CoreMetrics`] exactly once and, when the [`QueryCtx`]
//!    asks, assembles the [`ExplainReport`] — in `explain_report`, the only
//!    place one is built.

use crate::distortion::DistortionModel;
use crate::error::IndexError;
use crate::filter::{
    merge_blocks_within, missed_target, select_blocks_range, select_blocks_stat, FilterOutcome,
    UNPRUNED,
};
use crate::index::{Match, QueryResult, QueryStats, Refine, StatQueryOpts};
use crate::kernels;
use crate::metrics::CoreMetrics;
use crate::parallel::run_dynamic;
use crate::pseudo_disk::{BatchResult, BatchTiming};
use crate::resilience::{next_query_id, CancelCause, QueryCtx};
use s3_hilbert::{HilbertCurve, KeyRange};
use s3_obs::{span, BlockExplain, ExplainPhase, ExplainReport, QueryScope, ShardReport};
use std::time::{Duration, Instant};

/// What a query asks of the records its plan selects: the same for every
/// query of a batch and for every source scanned.
#[derive(Clone, Copy)]
pub(crate) struct Ask {
    pub(crate) refine: Refine,
    /// α and depth as asked, for EXPLAIN (a geometric query asks for no
    /// mass: NaN).
    alpha: f64,
    depth: u32,
}

impl Ask {
    pub(crate) fn stat(opts: &StatQueryOpts) -> Ask {
        Ask {
            refine: opts.refine,
            alpha: opts.alpha,
            depth: opts.depth,
        }
    }

    pub(crate) fn range(eps: f64, depth: u32) -> Ask {
        Ask {
            refine: Refine::Range(eps),
            alpha: f64::NAN,
            depth,
        }
    }
}

/// How far (squared) from the query a selected block's box may lie and
/// still hold a record `refine` keeps: `⌊ε²⌋` under `Refine::Range(ε)` —
/// the very bound the run kernel compares each record's integer d²
/// against — and no limit under `Refine::All`. `None` (a NaN ε)
/// admits no block, as the kernel admits no record.
///
/// The prune is exact. Fingerprints, the query and box corners are
/// integers, so a block's d² ([`crate::filter::ScoredBlock::dist_sq`]) is
/// exact, and every record in the block lies at least that far from the
/// query: a block beyond `⌊ε²⌋` holds no record within ε.
pub(crate) fn reach(refine: Refine) -> Option<u64> {
    #[cfg(test)]
    if unpruned_oracle::on() {
        return UNPRUNED;
    }
    match refine {
        Refine::Range(eps) => kernels::bound_from_eps_sq(eps * eps),
        Refine::All => UNPRUNED,
    }
}

/// Test-only switch: with it on, this thread's plans keep every selected
/// block — the unpruned plan the ball prune is checked against.
#[cfg(test)]
pub(crate) mod unpruned_oracle {
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

/// Stage 1 of one query: where to look, and what finding that out cost.
pub(crate) struct QueryPlan {
    /// Merged key ranges to scan, ascending: those of the selected blocks
    /// within `reach`.
    pub(crate) ranges: Vec<KeyRange>,
    /// The ball prune's bound ([`reach`]); a selected block beyond it is
    /// in `selection` but not in `ranges`.
    pub(crate) reach: Option<u64>,
    /// The filter's side of the counters.
    pub(crate) stats: QueryStats,
    /// EXPLAIN only (so on the production path a block list drops right
    /// after range merging): the selection itself — `None` also when a stop
    /// landed before the filter ran — and the time planning took.
    pub(crate) selection: Option<FilterOutcome>,
    filter_ns: u64,
}

impl QueryPlan {
    /// Runs `filter` for query number `qi` of its batch and merges its
    /// blocks within `reach`. A token that fired beforehand skips the
    /// filter outright: the plan is empty, flagged `cancelled`. One that
    /// fired while the filter ran flags the plan conservatively — its
    /// selection may be partial — even though it just finished.
    pub(crate) fn new(
        curve: &HilbertCurve,
        qi: usize,
        ctx: Option<&QueryCtx>,
        reach: Option<u64>,
        filter: impl FnOnce() -> FilterOutcome,
    ) -> QueryPlan {
        let should_stop = || ctx.is_some_and(|c| c.should_stop());
        if should_stop() {
            return QueryPlan {
                ranges: Vec::new(),
                reach,
                stats: QueryStats {
                    cancelled: true,
                    ..QueryStats::default()
                },
                selection: None,
                filter_ns: 0,
            };
        }
        let t0 = Instant::now();
        let outcome = {
            let mut sp = span!("query.filter", "qi" => qi as f64);
            let outcome = filter();
            sp.record("blocks", outcome.blocks.len() as f64);
            sp.record("nodes", outcome.nodes_expanded as f64);
            sp.record("mass", outcome.mass);
            outcome
        };
        let mut stats = QueryStats::of_filter(&outcome);
        stats.cancelled = should_stop();
        let ranges = merge_blocks_within(curve, &outcome.blocks, reach);
        QueryPlan {
            ranges,
            reach,
            stats,
            filter_ns: t0.elapsed().as_nanos() as u64,
            selection: ctx.is_some_and(|c| c.explains()).then_some(outcome),
        }
    }

    /// The plan of a statistical query of expectation α (§II, eq. 1).
    pub(crate) fn stat(
        curve: &HilbertCurve,
        qi: usize,
        q: &[u8],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        ctx: Option<&QueryCtx>,
    ) -> QueryPlan {
        QueryPlan::new(curve, qi, ctx, reach(opts.refine), || {
            select_blocks_stat(curve, model, q, opts, ctx)
        })
    }

    /// The plan of an ε-range query. The geometric filter is cheap and runs
    /// to completion; a stop lands in the scan.
    pub(crate) fn range(
        curve: &HilbertCurve,
        qi: usize,
        q: &[u8],
        eps: f64,
        depth: u32,
        ctx: Option<&QueryCtx>,
    ) -> QueryPlan {
        QueryPlan::new(curve, qi, ctx, reach(Refine::Range(eps)), || {
            select_blocks_range(curve, q, depth, eps, usize::MAX)
        })
    }
}

/// What scanning one query's plan over one sorted run of records found.
#[derive(Default)]
pub(crate) struct QueryScan {
    pub(crate) matches: Vec<Match>,
    /// The scan's side of the counters (the filter's stay zero).
    pub(crate) stats: QueryStats,
    /// EXPLAIN only: `(scanned, matched)` per block of the plan's selection.
    pub(crate) blocks: Vec<(u64, u64)>,
    pub(crate) refine_ns: u64,
}

impl QueryScan {
    /// Adds the scan of the same plan over a further run of records, whose
    /// record indexes start at `base`.
    pub(crate) fn absorb(&mut self, other: QueryScan, base: usize) {
        self.matches.extend(other.matches.into_iter().map(|mut m| {
            m.index += base;
            m
        }));
        self.stats.absorb_scan(&other.stats);
        add_blocks(&mut self.blocks, &other.blocks);
        self.refine_ns += other.refine_ns;
    }
}

fn add_blocks(acc: &mut Vec<(u64, u64)>, more: &[(u64, u64)]) {
    if acc.is_empty() {
        acc.extend_from_slice(more);
    } else {
        for (a, m) in acc.iter_mut().zip(more) {
            a.0 += m.0;
            a.1 += m.1;
        }
    }
}

/// EXPLAIN accounting of one query over one sorted run of records: each
/// selected block's key range, located against the run, gives the records
/// refinement scanned for it (the depth-p blocks the ball prune kept are
/// disjoint and tile the merged scan ranges exactly; a block it dropped
/// scanned none); each of `matches` — the ones this run produced, indexes
/// offset by `base` — is attributed to the unique block whose record
/// interval holds it. A plan with no selection kept tallies nothing.
pub(crate) fn tally_blocks(
    curve: &HilbertCurve,
    plan: &QueryPlan,
    locate: impl Fn(&KeyRange) -> (usize, usize),
    base: usize,
    matches: &[Match],
    acc: &mut Vec<(u64, u64)>,
) {
    let Some(selection) = &plan.selection else {
        return;
    };
    acc.resize(selection.blocks.len(), (0, 0));
    let mut intervals: Vec<(usize, usize, usize)> = Vec::with_capacity(selection.blocks.len());
    for (bi, sb) in selection.blocks.iter().enumerate() {
        if !sb.within(plan.reach) {
            continue;
        }
        let (lo, hi) = locate(&sb.key_range(curve));
        if hi > lo {
            acc[bi].0 += (hi - lo) as u64;
            intervals.push((base + lo, base + hi, bi));
        }
    }
    intervals.sort_unstable();
    for m in matches {
        let p = intervals.partition_point(|&(start, _, _)| start <= m.index);
        if p > 0 {
            let (_, end, bi) = intervals[p - 1];
            if m.index < end {
                acc[bi].1 += 1;
            }
        }
    }
}

/// Folds one finished query into the registry: its work counters, its
/// latency, and whether the filter's achieved mass reached the target it
/// aimed at over the engine's `n_records` (geometric queries carry no mass
/// and calibrate nothing). Called once per logical query, by the epilogue
/// of the engine the caller entered: a scan records nothing.
fn fold_query(stats: &QueryStats, latency: Duration, n_records: u64) {
    let metrics = CoreMetrics::get();
    metrics.record_query(stats, latency);
    metrics.record_calibration(stats.mass, stats.target, n_records as usize);
}

/// Every span emitted while a query or a batch runs carries one query id —
/// the ctx's if the caller provided one, a fresh one otherwise — so sinked
/// span streams regroup into per-query trees.
pub(crate) fn query_scope(ctx: Option<&QueryCtx>) -> QueryScope {
    QueryScope::enter_inherit(ctx.map_or_else(next_query_id, QueryCtx::id))
}

/// A single query, start to finish: `plan` it, `scan` the plan over the
/// `n_records` records of the engine that asks (one run or several,
/// absorbed into one [`QueryScan`]), and run the epilogue.
pub(crate) fn run_query(
    ask: &Ask,
    n_records: u64,
    ctx: Option<&QueryCtx>,
    plan: impl FnOnce() -> QueryPlan,
    scan: impl FnOnce(&QueryPlan) -> QueryScan,
) -> QueryResult {
    let _scope = query_scope(ctx);
    let t0 = Instant::now();
    let plan = plan();
    let scan = scan(&plan);
    let mut stats = plan.stats;
    stats.absorb_scan(&scan.stats);
    fold_query(&stats, t0.elapsed(), n_records);
    let explain = ctx.filter(|c| c.explains()).map(|c| {
        explain_report(Evidence {
            query_id: c.id(),
            ask,
            plan: &plan,
            stats: &stats,
            matches: scan.matches.len(),
            n_records,
            blocks: &scan.blocks,
            shards: Vec::new(),
            phases: vec![
                phase("filter", plan.filter_ns),
                phase("refine", scan.refine_ns),
            ],
            stop_cause: c.stop_cause(),
        })
    });
    QueryResult {
        matches: scan.matches,
        stats,
        explain,
    }
}

/// Stage 1 of a batch, run for all `N_sig` queries before the first record
/// is read (§IV-B).
pub(crate) struct Plan<'a> {
    pub(crate) queries: &'a [&'a [u8]],
    pub(crate) ask: Ask,
    pub(crate) per_query: Vec<QueryPlan>,
    /// Wall time of planning the whole batch.
    filter_time: Duration,
}

impl<'a> Plan<'a> {
    /// Plans a batch of statistical queries on up to `threads` workers.
    pub(crate) fn stat(
        curve: &HilbertCurve,
        queries: &'a [&'a [u8]],
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        threads: usize,
        ctx: Option<&QueryCtx>,
    ) -> Result<Plan<'a>, IndexError> {
        // One bound for the whole batch, taken before the workers start.
        let reach = reach(opts.refine);
        Plan::new(curve, queries, Ask::stat(opts), threads, |qi, q| {
            QueryPlan::new(curve, qi, ctx, reach, || {
                select_blocks_stat(curve, model, q, opts, ctx)
            })
        })
    }

    /// Plans a batch of ε-range queries on up to `threads` workers.
    pub(crate) fn range(
        curve: &HilbertCurve,
        queries: &'a [&'a [u8]],
        eps: f64,
        depth: u32,
        threads: usize,
        ctx: Option<&QueryCtx>,
    ) -> Result<Plan<'a>, IndexError> {
        let reach = reach(Refine::Range(eps));
        Plan::new(curve, queries, Ask::range(eps, depth), threads, |qi, q| {
            QueryPlan::new(curve, qi, ctx, reach, || {
                select_blocks_range(curve, q, depth, eps, usize::MAX)
            })
        })
    }

    /// Every query's plan is independent of the others, so workers claim
    /// them one at a time; the plans come back in input order. No ctx goes
    /// to the scheduler, so every slot is filled: a stop lands inside each
    /// query's own plan, which comes back empty and flagged.
    fn new(
        curve: &HilbertCurve,
        queries: &'a [&'a [u8]],
        ask: Ask,
        threads: usize,
        plan_query: impl Fn(usize, &[u8]) -> QueryPlan + Sync,
    ) -> Result<Plan<'a>, IndexError> {
        if let Some(q) = queries.iter().find(|q| q.len() != curve.dims()) {
            return Err(IndexError::QueryDims {
                expected: curve.dims(),
                got: q.len(),
            });
        }
        let t0 = Instant::now();
        let per_query = run_dynamic(queries.len(), threads, None, &|qi| {
            plan_query(qi, queries[qi])
        })
        .into_iter()
        .zip(queries.iter().enumerate())
        .map(|(plan, (qi, q))| plan.unwrap_or_else(|| plan_query(qi, q)))
        .collect();
        Ok(Plan {
            queries,
            ask,
            per_query,
            filter_time: t0.elapsed(),
        })
    }

    /// The epilogue of a batch: `scan` is everything scanning this plan
    /// found, over `n_records` records in all; a scatter-gather batch adds
    /// how its scatter went. The per-query and batch-level flags are both
    /// recomputed here from the same evidence, so they agree by
    /// construction whatever path set them, and the batch is folded into
    /// the registry with the amortised per-query latency
    /// `T_tot = T + T_load/N_sig` (eq. 5).
    pub(crate) fn finish(
        &self,
        scan: Scan,
        n_records: u64,
        ctx: Option<&QueryCtx>,
        scatter: Option<Scatter>,
    ) -> BatchResult {
        let Scan {
            per_query: scans,
            mut timing,
            sections,
        } = scan;
        let n_queries = self.queries.len();
        let mut stats: Vec<QueryStats> = self.per_query.iter().map(|p| p.stats).collect();
        for (st, scan) in stats.iter_mut().zip(&scans) {
            st.absorb_scan(&scan.stats);
        }
        timing.filter = self.filter_time;
        timing.degraded = timing.sections_skipped > 0 || stats.iter().any(|s| s.degraded);
        let stop_cause = ctx.and_then(|c| c.stop_cause());
        timing.deadline_hit = stop_cause == Some(CancelCause::DeadlineExceeded);
        let per_query = timing.per_query(n_queries);
        for st in &stats {
            fold_query(st, per_query, n_records);
        }

        let mut reports = Vec::new();
        if let Some(ctx) = ctx.filter(|c| c.explains()) {
            let amortised = |d: Duration| (d.as_nanos() / n_queries.max(1) as u128) as u64;
            let load = phase("load", amortised(timing.load));
            let (scatter, mut rows) = match scatter {
                Some(s) => (Some(phase("scatter", amortised(s.time))), s.rows),
                None => (None, Vec::new()),
            };
            rows.resize(n_queries, Vec::new());
            for (qi, (plan, shards)) in self.per_query.iter().zip(rows).enumerate() {
                let filter = phase("filter", plan.filter_ns);
                reports.push(explain_report(Evidence {
                    query_id: ctx.id(),
                    ask: &self.ask,
                    plan,
                    stats: &stats[qi],
                    matches: scans[qi].matches.len(),
                    n_records,
                    blocks: &scans[qi].blocks,
                    shards,
                    // Replica refinement overlaps the scatter, which is
                    // what a scatter-gather query waited for.
                    phases: match &scatter {
                        Some(scatter) => vec![filter, scatter.clone(), load.clone()],
                        None => vec![filter, load.clone(), phase("refine", scans[qi].refine_ns)],
                    },
                    stop_cause,
                }));
            }
        }
        BatchResult {
            matches: scans.into_iter().map(|s| s.matches).collect(),
            stats,
            timing,
            sections,
            reports,
        }
    }
}

/// What scanning a batch's plan over one sorted run of records found.
pub(crate) struct Scan {
    /// Parallel to the plan's queries.
    pub(crate) per_query: Vec<QueryScan>,
    /// Load/refine time and section accounting of this scan.
    pub(crate) timing: BatchTiming,
    /// Sections the run was split into.
    pub(crate) sections: usize,
}

impl Scan {
    /// The scan of no records at all, for `n_queries` queries.
    pub(crate) fn empty(n_queries: usize) -> Scan {
        Scan {
            per_query: (0..n_queries).map(|_| QueryScan::default()).collect(),
            timing: BatchTiming::default(),
            sections: 0,
        }
    }

    /// Adds the scan of the same plan over a further run of records, whose
    /// record indexes start at `base`. Runs absorbed in key order keep each
    /// query's matches in ascending global (curve) order.
    pub(crate) fn absorb(&mut self, other: Scan, base: usize) {
        self.timing.absorb(&other.timing);
        self.sections = self.sections.max(other.sections);
        for (mine, theirs) in self.per_query.iter_mut().zip(other.per_query) {
            mine.absorb(theirs, base);
        }
    }
}

/// How the scatter of a scatter-gather batch went, for its EXPLAIN reports.
pub(crate) struct Scatter {
    /// Wall time from the first dispatch to the last shard's answer.
    pub(crate) time: Duration,
    /// Per query, one row per shard its plan touched (empty unless EXPLAIN
    /// was asked).
    pub(crate) rows: Vec<Vec<ShardReport>>,
}

fn phase(name: &'static str, ns: u64) -> ExplainPhase {
    ExplainPhase { name, ns }
}

/// Everything an engine knows about one finished query.
struct Evidence<'a> {
    query_id: u64,
    ask: &'a Ask,
    plan: &'a QueryPlan,
    /// The query's final counters.
    stats: &'a QueryStats,
    matches: usize,
    n_records: u64,
    blocks: &'a [(u64, u64)],
    shards: Vec<ShardReport>,
    phases: Vec<ExplainPhase>,
    stop_cause: Option<CancelCause>,
}

/// Builds a query's EXPLAIN report: the plan next to what scanning it
/// actually did, and one annotation for every way the answer may be
/// incomplete — the same evidence reads the same in every engine.
fn explain_report(e: Evidence) -> ExplainReport {
    let st = e.stats;
    let mut rep = ExplainReport {
        query_id: e.query_id,
        alpha: e.ask.alpha,
        depth: e.ask.depth,
        predicted_mass: st.mass,
        target: st.target,
        tmax: st.tmax.unwrap_or(0.0),
        observed_selectivity: if e.n_records == 0 {
            0.0
        } else {
            st.entries_scanned as f64 / e.n_records as f64
        },
        entries_scanned: st.entries_scanned as u64,
        matches: e.matches as u64,
        sketch_skipped: st.sketch_skipped as u64,
        phases: e.phases,
        ..ExplainReport::default()
    };
    match &e.plan.selection {
        Some(selection) => {
            rep.algo = selection.algo;
            rep.iterations = selection.iterations;
            // Per-shard rows replace per-block accounting: replicas scan the
            // router's ranges and never see its blocks.
            if e.shards.is_empty() {
                rep.blocks = selection
                    .blocks
                    .iter()
                    .enumerate()
                    .map(|(bi, sb)| {
                        let (scanned, matched) = e.blocks.get(bi).copied().unwrap_or((0, 0));
                        BlockExplain {
                            depth: sb.depth(),
                            predicted_mass: sb.score,
                            scanned,
                            matched,
                        }
                    })
                    .collect();
            }
            if st.truncated {
                rep.annotations
                    .push("block budget truncated selection before reaching α".into());
            }
            if missed_target(st.mass, st.target) {
                rep.annotations.push(format!(
                    "achieved mass {:.4} below reachable α {:.4}",
                    st.mass, st.target
                ));
            }
        }
        None => rep
            .annotations
            .push("cancelled before filtering — empty plan".into()),
    }
    if st.shard_skips > 0 {
        rep.annotations.push(format!(
            "{} shard(s) lost — their key ranges are missing from the answer",
            st.shard_skips
        ));
    }
    if st.sections_skipped > 0 {
        rep.annotations.push(format!(
            "{} section(s) skipped — {} counts may not reconcile",
            st.sections_skipped,
            if e.shards.is_empty() {
                "per-block"
            } else {
                "per-shard"
            }
        ));
    }
    if st.cancelled {
        rep.annotations.push(match e.stop_cause {
            Some(CancelCause::DeadlineExceeded) => "deadline exceeded — partial scan".into(),
            Some(cause) => format!("cancelled ({cause:?}) — partial scan"),
            None => "cancelled — partial scan".into(),
        });
    }
    rep.shards = e.shards;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;

    /// However many workers plan a batch, every query gets the plan the
    /// sequential loop gives it, in input order: the same ranges, nodes,
    /// blocks and mass bits.
    #[test]
    fn plans_do_not_depend_on_the_thread_count() {
        let curve = HilbertCurve::new(6, 8)
            .unwrap()
            .with_axes(&[3, 0, 5, 1, 4, 2])
            .unwrap();
        let model = IsotropicNormal::new(6, 14.0);
        let opts = StatQueryOpts::new(0.9, 14);
        let queries: Vec<Vec<u8>> = (0..37u8)
            .map(|i| {
                (0..6)
                    .map(|c| i.wrapping_mul(41).wrapping_add(c * 29))
                    .collect()
            })
            .collect();
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let summary = |plan: &Plan| -> Vec<_> {
            plan.per_query
                .iter()
                .map(|p| {
                    let st = &p.stats;
                    let mass = st.mass.to_bits();
                    (
                        p.ranges.clone(),
                        st.nodes_expanded,
                        st.blocks_selected,
                        mass,
                    )
                })
                .collect()
        };
        let stat = |threads| Plan::stat(&curve, &qrefs, &model, &opts, threads, None).unwrap();
        let range = |threads| Plan::range(&curve, &qrefs, 30.0, 10, threads, None).unwrap();
        let (stat_1, range_1) = (summary(&stat(1)), summary(&range(1)));
        assert!(stat_1.iter().all(|(ranges, ..)| !ranges.is_empty()));
        for threads in [2, 4] {
            assert_eq!(summary(&stat(threads)), stat_1, "stat, {threads} threads");
            assert_eq!(
                summary(&range(threads)),
                range_1,
                "range, {threads} threads"
            );
        }
    }
}
