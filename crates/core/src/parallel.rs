//! Parallel batch search.
//!
//! The S³ index is immutable after construction, so queries parallelise
//! trivially: [`stat_query_batch`] shards a query batch across scoped
//! std threads.
//!
//! Work is distributed dynamically: workers claim items off a shared atomic
//! cursor, so a handful of expensive queries — deep filters, wide distortion
//! models — cannot strand the rest of the batch on one thread the way fixed
//! per-worker chunks would.
//!
//! This goes beyond the paper (which reports single-core Pentium-IV numbers)
//! but is what the paper's TV-monitoring deployment would use today; the
//! monitoring example uses it to stay ahead of real time.

use crate::distortion::DistortionModel;
use crate::index::{QueryResult, S3Index, StatQueryOpts};
use crate::metrics::CoreMetrics;
use crate::resilience::QueryCtx;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A per-item result slot written by exactly one worker.
///
/// The atomic cursor hands each index to a single winner, so the cells are
/// never aliased; `UnsafeCell` just lets the winners write through a shared
/// borrow without a lock.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: distinct threads only ever access distinct slots (each index is
// claimed by exactly one `fetch_add` winner), so `&Slot` may cross threads
// whenever the payload itself may.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Runs `f(0..n)` across up to `threads` workers pulling indices off a
/// shared cursor; returns results in index order.
///
/// Falls back to a plain sequential loop when one worker (or fewer) would
/// remain after clamping to the task count — so 0- and 1-item batches never
/// pay a thread spawn.
///
/// With a `ctx`, workers stop claiming new items once it fires: items never
/// claimed come back as `None`, items claimed before the stop run to
/// completion (the task itself may poll `ctx` at a finer grain). Without
/// one the cursor sweeps `[0, n)` exactly once and every slot is `Some`.
pub(crate) fn run_dynamic<T, F>(
    n: usize,
    threads: usize,
    ctx: Option<&QueryCtx>,
    f: &F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        for i in 0..n {
            if ctx.is_some_and(|c| c.should_stop()) {
                out.resize_with(n, || None);
                return out;
            }
            out.push(Some(f(i)));
        }
        return out;
    }
    let metrics = CoreMetrics::get();
    metrics.workers_spawned.add(workers as u64);
    let slots: Vec<Slot<T>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let cursor = AtomicUsize::new(0);
    // Spawned workers start with a blank thread-local query scope; re-enter
    // the spawning thread's scope so their spans stay in the query's tree.
    let qid = s3_obs::current_query();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _scope = s3_obs::QueryScope::enter(qid);
                let mut claimed = 0u64;
                loop {
                    if ctx.is_some_and(|c| c.should_stop()) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else {
                        break;
                    };
                    let v = f(i);
                    // SAFETY: index `i` belongs to this claim alone; no
                    // other thread reads or writes `slots[i]` until the
                    // scope joins.
                    unsafe { *slot.0.get() = Some(v) };
                    claimed += 1;
                }
                metrics.tasks_per_worker.record(claimed);
            });
        }
    });
    slots.into_iter().map(|s| s.0.into_inner()).collect()
}

/// Runs a batch of statistical queries across `threads` worker threads.
///
/// Results are returned in input order. With `threads == 1` (or a batch of
/// at most one query) this is a plain sequential loop — no thread spawn.
///
/// `ctx`, when given, says how every query of the batch runs
/// ([`S3Index::stat_query_ctx`]), and workers stop claiming new queries once
/// it fires: queries never started come back as empty results flagged
/// `cancelled`/`degraded`, so the output always has one entry per input.
pub fn stat_query_batch(
    index: &S3Index,
    queries: &[&[u8]],
    model: &dyn DistortionModel,
    opts: &StatQueryOpts,
    threads: usize,
    ctx: Option<&QueryCtx>,
) -> Vec<QueryResult> {
    assert!(threads > 0, "need at least one thread");
    let _scope = ctx.map(|c| s3_obs::QueryScope::enter_inherit(c.id()));
    let _sp = s3_obs::span!(
        "query.batch",
        "queries" => queries.len() as f64,
        "threads" => threads as f64,
    );
    // Queries are orders of magnitude heavier than a `fetch_add`, so they
    // are claimed one at a time for the finest balance.
    let slots = run_dynamic(queries.len(), threads, ctx, &|i| {
        index.stat_query_in(queries[i], model, opts, ctx)
    });
    slots
        .into_iter()
        .zip(queries)
        // An unclaimed slot's ctx has fired, so running the query now only
        // plans the empty, flagged answer — and folds it like any other.
        .map(|(slot, q)| slot.unwrap_or_else(|| index.stat_query_in(q, model, opts, ctx)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;
    use crate::fingerprint::RecordBatch;
    use s3_hilbert::HilbertCurve;

    fn index(n: usize) -> S3Index {
        let mut batch = RecordBatch::with_capacity(4, n);
        let mut s = 0xFEEDu64;
        let mut fp = [0u8; 4];
        for i in 0..n {
            for c in fp.iter_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *c = (s >> 32) as u8;
            }
            batch.push(&fp, i as u32, 0);
        }
        S3Index::build(HilbertCurve::new(4, 8).unwrap(), batch)
    }

    #[test]
    fn parallel_matches_sequential() {
        let idx = index(2000);
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.85, 10);
        let queries: Vec<Vec<u8>> = (0..23u8).map(|i| vec![i * 11, 200 - i, i, 128]).collect();
        let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let seq: Vec<QueryResult> = qrefs
            .iter()
            .map(|q| idx.stat_query(q, &model, &opts))
            .collect();
        for threads in [1, 2, 4] {
            let par = stat_query_batch(&idx, &qrefs, &model, &opts, threads, None);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.matches, b.matches, "threads={threads}");
                assert_eq!(a.stats, b.stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_batch_ok() {
        let idx = index(10);
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.8, 6);
        assert!(stat_query_batch(&idx, &[], &model, &opts, 4, None).is_empty());
    }

    #[test]
    fn single_query_skips_thread_spawn() {
        let idx = index(200);
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.8, 6);
        let q: &[u8] = &[9, 9, 9, 9];
        let seq = stat_query_batch(&idx, &[q], &model, &opts, 1, None);
        let par = stat_query_batch(&idx, &[q], &model, &opts, 8, None);
        assert_eq!(seq.len(), 1);
        assert_eq!(par.len(), 1);
        assert_eq!(seq[0].matches.len(), par[0].matches.len());
    }

    #[test]
    fn more_threads_than_queries_ok() {
        let idx = index(100);
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.8, 6);
        let q: &[u8] = &[1, 2, 3, 4];
        let r = stat_query_batch(&idx, &[q, q, q], &model, &opts, 16, None);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn run_dynamic_preserves_order() {
        let out = run_dynamic(1000, 7, None, &|i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * i));
        }
        assert!(run_dynamic(0, 4, None, &|i| i).is_empty());
        assert_eq!(run_dynamic(1, 4, None, &|i| i + 1), vec![Some(1)]);
    }

    #[test]
    fn fired_ctx_leaves_unclaimed_slots_and_the_batch_flags_them() {
        let ctx = QueryCtx::unbounded();
        ctx.token().cancel();
        for threads in [1, 3] {
            let out = run_dynamic(10, threads, Some(&ctx), &|i| i);
            assert!(out.iter().all(Option::is_none), "threads={threads}");
        }
        // The batch still has one entry per query: empty, flagged.
        let idx = index(200);
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.8, 6);
        let q: &[u8] = &[9, 9, 9, 9];
        let got = stat_query_batch(&idx, &[q, q, q], &model, &opts, 2, Some(&ctx));
        assert_eq!(got.len(), 3);
        for r in &got {
            assert!(r.matches.is_empty());
            assert!(r.stats.cancelled && r.stats.degraded);
        }
    }
}
