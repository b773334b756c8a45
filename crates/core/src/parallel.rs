//! Parallel batch search.
//!
//! The S³ index is immutable after construction, so queries parallelise
//! trivially: [`stat_query_batch`] shards a query batch across scoped
//! std threads, and the pseudo-disk batch plans its queries and refines
//! each resident section the same way.
//!
//! Work is distributed dynamically: workers claim items off a shared atomic
//! cursor, so a handful of expensive queries — deep filters, wide distortion
//! models — cannot strand the rest of the batch on one thread the way fixed
//! per-worker chunks would. The calling thread is one of the workers, and
//! within a fan-out it never waits for another to start or finish an item
//! (`Crew::run`): on a shared machine a helper's core may be slow to wake,
//! and a pseudo-disk batch that waited for it at every section would pay
//! that at every section. Helpers are joined once, when their crew ends.
//!
//! This goes beyond the paper (which reports single-core Pentium-IV numbers)
//! but is what the paper's TV-monitoring deployment would use today; the
//! monitoring example uses it to stay ahead of real time.

use crate::distortion::DistortionModel;
use crate::index::{QueryResult, S3Index, StatQueryOpts};
use crate::resilience::QueryCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};

/// Every available core: the default worker count of the pseudo-disk batch
/// and of the CLI (the workspace's one core count lives in `s3-obs`).
pub use s3_obs::default_threads;

/// One fan-out: the data its items read, the claim cursor and one result
/// slot per item.
struct Job<D, T> {
    data: Arc<D>,
    cursor: AtomicUsize,
    slots: Vec<Mutex<Option<T>>>,
}

impl<D, T> Job<D, T> {
    /// Claims and runs items until every item is claimed or `ctx` fires.
    fn work(&self, task: &(dyn Fn(&D, usize) -> T + Sync), ctx: Option<&QueryCtx>) {
        while !ctx.is_some_and(|c| c.should_stop()) {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.slots.get(i) else {
                return;
            };
            let v = task(&self.data, i);
            // The caller may have run this item itself meanwhile; items are
            // pure, so the first result stored is as good as this one.
            lock(slot).get_or_insert(v);
        }
    }
}

/// A result slot's guard. Tasks run outside the lock, and a slot is `None`
/// or a whole result at every step, so a poisoned slot is still valid.
fn lock<T>(slot: &Mutex<Option<T>>) -> MutexGuard<'_, Option<T>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Helper threads that stay up for a sequence of fan-outs — a pseudo-disk
/// batch runs one per resident section — and join the calling thread on
/// each ([`Crew::run`]).
pub(crate) struct Crew<'t, D, T> {
    helpers: Vec<mpsc::Sender<Arc<Job<D, T>>>>,
    task: &'t (dyn Fn(&D, usize) -> T + Sync),
    ctx: Option<&'t QueryCtx>,
}

impl<D, T> Crew<'_, D, T> {
    /// Runs `task(data, i)` for every `i < n` on the calling thread and the
    /// helpers, each claiming the next item off a shared cursor, so a few
    /// expensive items cannot strand the rest on one thread; returns the
    /// results in item order.
    ///
    /// The caller never waits for a helper, not even for one to wake up:
    /// once every item is claimed it runs any item still unfinished itself,
    /// and the first result stored wins. With a `ctx`, nobody claims or
    /// finishes another item once it fires: those come back `None` (an item
    /// may poll `ctx` at a finer grain). Without one every slot is `Some`.
    pub(crate) fn run(&self, data: &Arc<D>, n: usize) -> Vec<Option<T>> {
        let stopped = || self.ctx.is_some_and(|c| c.should_stop());
        if self.helpers.is_empty() {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if stopped() {
                    out.resize_with(n, || None);
                    break;
                }
                out.push(Some((self.task)(data, i)));
            }
            return out;
        }
        let job = Arc::new(Job {
            data: Arc::clone(data),
            cursor: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        });
        for helper in &self.helpers {
            // A helper only stops listening when the crew is dropped.
            let _ = helper.send(Arc::clone(&job));
        }
        job.work(self.task, self.ctx);
        for (i, slot) in job.slots.iter().enumerate() {
            if stopped() {
                break;
            }
            let unfinished = lock(slot).is_none();
            if unfinished {
                let v = (self.task)(data, i);
                lock(slot).get_or_insert(v);
            }
        }
        job.slots.iter().map(|slot| lock(slot).take()).collect()
    }
}

/// Runs `body` with a [`Crew`] of `threads − 1` helper threads running
/// `task`, joined when `body` returns. One thread or fewer spawns nothing.
pub(crate) fn with_crew<D, T, R>(
    threads: usize,
    ctx: Option<&QueryCtx>,
    task: &(dyn Fn(&D, usize) -> T + Sync),
    body: impl FnOnce(&Crew<'_, D, T>) -> R,
) -> R
where
    D: Send + Sync,
    T: Send,
{
    if threads <= 1 {
        return body(&Crew {
            helpers: Vec::new(),
            task,
            ctx,
        });
    }
    // Helpers start with a blank thread-local query scope; they enter the
    // caller's so their spans stay in the query's tree.
    let qid = s3_obs::current_query();
    std::thread::scope(|scope| {
        let helpers = (1..threads)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Arc<Job<D, T>>>();
                scope.spawn(move || {
                    let _scope = s3_obs::QueryScope::enter(qid);
                    for job in rx {
                        job.work(task, ctx);
                    }
                });
                tx
            })
            .collect();
        // Dropping the crew closes the helpers' channels, so they exit and
        // the scope joins them.
        body(&Crew { helpers, task, ctx })
    })
}

/// Runs `f(0..n)` once across up to `threads` workers (the calling thread
/// and a [`Crew`] spawned for the call); returns results in index order,
/// `None` for items a fired `ctx` left unfinished (see [`Crew::run`]).
/// One worker, or one item, is a plain loop with no thread spawned.
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
    let task = |_: &(), i: usize| f(i);
    with_crew(threads.min(n), ctx, &task, |crew| {
        crew.run(&Arc::new(()), n)
    })
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

    /// A fan-out never waits for a helper: with the helper parked inside
    /// whatever item it claims until the fan-out has returned, the calling
    /// thread runs that item too, and every result comes back in order.
    #[test]
    fn a_crew_never_waits_for_a_stalled_helper() {
        let caller = std::thread::current().id();
        let (release, parked) = mpsc::channel::<()>();
        let parked = Mutex::new(parked);
        let task = |data: &Vec<usize>, i: usize| {
            if std::thread::current().id() != caller {
                let _ = parked.lock().unwrap().recv();
            }
            data[i] * 2
        };
        with_crew(2, None, &task, |crew| {
            for n in [1, 7, 300] {
                let data = Arc::new((0..n).collect::<Vec<usize>>());
                let want: Vec<Option<usize>> = (0..n).map(|i| Some(2 * i)).collect();
                assert_eq!(crew.run(&data, n), want);
                // One release per fan-out: the helper parks at most once in each.
                release.send(()).unwrap();
            }
        });
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
