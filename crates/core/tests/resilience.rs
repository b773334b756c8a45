//! End-to-end resilience properties of the query path: deadlines on
//! stalled storage, cancellation accounting, retry-backoff bounds and
//! strict-mode loudness.
//!
//! Everything time-dependent runs against a [`MockClock`] — fault-injection
//! stalls advance the clock instead of sleeping, so deadline behaviour is
//! exercised deterministically and at zero wall cost.
//!
//! What every engine owes its caller is checked against all three of them
//! ([`Engine`]): each keeps one general entry point taking a [`QueryCtx`]
//! plus a context-free shorthand, and however a batch is run — shorthand,
//! unbounded ctx, EXPLAIN asked, stopped on some poll — the answer is the
//! clean one or a flagged subset of it, and the same evidence is annotated
//! the same way.

use proptest::prelude::*;
use s3_core::filter::missed_target;
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy, WriteOpts};
use s3_core::shard::{HedgeConfig, ShardPlan, ShardedIndex, ShardedOptions};
use s3_core::{
    CancelCause, Clock, CoreMetrics, FaultPlan, FaultyStorage, IsotropicNormal, Match, MemStorage,
    MockClock, QueryCtx, QueryStats, RecordBatch, S3Index, StatQueryOpts, Storage, TimeSource,
};
use s3_hilbert::HilbertCurve;
use s3_obs::ExplainReport;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const DIMS: usize = 6;
const N: usize = 600;
const TABLE_DEPTH: u32 = 8;
const BLOCK_SIZE: u32 = 128;
/// Memory budget small enough to force a multi-section split.
const MEM_BUDGET: u64 = 8 << 10;

fn build_index() -> S3Index {
    let mut s = 0x5EED_0002u64;
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
        let bytes = DiskIndex::encode_to_vec(&index, write_opts()).unwrap();
        (index, bytes)
    })
}

fn queries() -> Vec<Vec<u8>> {
    let (index, _) = fixture();
    (0..30)
        .map(|i| index.records().fingerprint(i * 19).to_vec())
        .collect()
}

fn no_backoff(max_retries: u32, strict: bool) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        backoff: Duration::ZERO,
        strict,
    }
}

fn write_opts() -> WriteOpts {
    WriteOpts {
        table_depth: TABLE_DEPTH,
        block_size: BLOCK_SIZE,
    }
}

fn model() -> IsotropicNormal {
    IsotropicNormal::new(DIMS, 12.0)
}

/// What an engine answered, engine-independently.
struct Answer {
    matches: Vec<Vec<Match>>,
    stats: Vec<QueryStats>,
    reports: Vec<ExplainReport>,
}

/// The three engines behind one face. `run` goes through the context-free
/// shorthand without a ctx and through the general entry point with one.
enum Engine {
    Mem(&'static S3Index),
    Disk(DiskIndex),
    Sharded(ShardedIndex),
}

impl Engine {
    fn name(&self) -> &'static str {
        match self {
            Engine::Mem(_) => "S3Index",
            Engine::Disk(_) => "DiskIndex",
            Engine::Sharded(_) => "ShardedIndex",
        }
    }

    fn run(&self, qrefs: &[&[u8]], opts: &StatQueryOpts, ctx: Option<&QueryCtx>) -> Answer {
        let model = model();
        let batch = match (self, ctx) {
            (Engine::Mem(index), _) => {
                let mut answer = Answer {
                    matches: Vec::new(),
                    stats: Vec::new(),
                    reports: Vec::new(),
                };
                for q in qrefs {
                    let res = match ctx {
                        None => index.stat_query(q, &model, opts),
                        Some(ctx) => index.stat_query_ctx(q, &model, opts, ctx),
                    };
                    answer.matches.push(res.matches);
                    answer.stats.push(res.stats);
                    answer.reports.extend(res.explain);
                }
                return answer;
            }
            (Engine::Disk(disk), None) => disk.stat_query_batch(qrefs, &model, opts, MEM_BUDGET),
            (Engine::Disk(disk), Some(ctx)) => {
                disk.stat_query_batch_ctx(qrefs, &model, opts, MEM_BUDGET, ctx)
            }
            (Engine::Sharded(sharded), None) => sharded
                .stat_query_batch(qrefs, &model, opts)
                .map(|r| r.batch),
            (Engine::Sharded(sharded), Some(ctx)) => sharded
                .stat_query_batch_ctx(qrefs, &model, opts, ctx)
                .map(|r| r.batch),
        }
        .unwrap();
        Answer {
            matches: batch.matches,
            stats: batch.stats,
            reports: batch.reports,
        }
    }
}

fn sharded_options() -> ShardedOptions {
    ShardedOptions {
        mem_budget: MEM_BUDGET,
        retry: no_backoff(0, false),
        // Hedges race the wall clock; nothing here is about them.
        hedge: HedgeConfig {
            enabled: false,
            ..HedgeConfig::default()
        },
        ..ShardedOptions::default()
    }
}

/// All three engines over the fixture's records, on clean storage.
fn engines() -> Vec<Engine> {
    let (index, bytes) = fixture();
    vec![
        Engine::Mem(index),
        Engine::Disk(DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap()),
        Engine::Sharded(
            ShardedIndex::build_mem(index, 3, 2, write_opts(), sharded_options()).unwrap(),
        ),
    ]
}

/// A clock that reads its own call count, in nanoseconds: a deadline of
/// `n` ns on it expires on exactly the `n`-th poll of the ctx.
#[derive(Debug, Default)]
struct PollClock(AtomicU64);

impl TimeSource for PollClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.fetch_add(1, Ordering::SeqCst))
    }
}

impl Clock for PollClock {
    fn sleep(&self, _: Duration) {}
}

/// A ctx whose `polls`-th `should_stop` is the first to return true
/// (reading 0 is `Deadline::after` itself).
fn ctx_stopping_on_poll(polls: u64) -> QueryCtx {
    QueryCtx::with_deadline(Arc::new(PollClock::default()), Duration::from_nanos(polls))
}

fn keys(matches: &[Match]) -> BTreeSet<(usize, u32, u32)> {
    matches.iter().map(|m| (m.index, m.id, m.tc)).collect()
}

/// One differential per engine: the shorthand, the general entry under an
/// unbounded ctx and the general entry with EXPLAIN asked return
/// bit-identical matches and counters; reports come back only when asked,
/// one per query, and reconcile with the totals.
#[test]
fn every_entry_point_of_every_engine_answers_identically() {
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
    for engine in engines() {
        let name = engine.name();
        let plain = engine.run(&qrefs, &opts, None);
        assert!(plain.reports.is_empty(), "{name}: nobody asked");
        assert!(
            plain.matches.iter().any(|m| !m.is_empty()),
            "{name}: vacuous"
        );
        let unbounded = engine.run(&qrefs, &opts, Some(&QueryCtx::unbounded()));
        assert!(unbounded.reports.is_empty(), "{name}: nobody asked");
        let explained = engine.run(&qrefs, &opts, Some(&QueryCtx::unbounded().explain()));
        for other in [&unbounded, &explained] {
            assert_eq!(other.matches, plain.matches, "{name}: matches differ");
            assert_eq!(other.stats, plain.stats, "{name}: counters differ");
        }
        assert_eq!(explained.reports.len(), qrefs.len(), "{name}");
        for (qi, rep) in explained.reports.iter().enumerate() {
            assert!(rep.reconciles(), "{name} query {qi}: {}", rep.to_text());
            assert!(!rep.degraded(), "{name} query {qi}: {:?}", rep.annotations);
            assert_eq!(rep.matches, plain.matches[qi].len() as u64);
            assert_eq!(rep.entries_scanned, plain.stats[qi].entries_scanned as u64);
            assert_eq!(rep.predicted_mass.to_bits(), plain.stats[qi].mass.to_bits());
        }
    }
}

/// An already-expired deadline stops every engine before it scans a
/// record: every query comes back cancelled+degraded and empty.
#[test]
fn expired_deadline_stops_batch_before_sections() {
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
    for engine in engines() {
        let name = engine.name();
        let clock = Arc::new(MockClock::new());
        let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::ZERO);
        clock.advance(Duration::from_nanos(1));

        let before = CoreMetrics::get().deadline_exceeded.get();
        let got = engine.run(&qrefs, &opts, Some(&ctx));
        assert_eq!(ctx.stop_cause(), Some(CancelCause::DeadlineExceeded));
        assert!(CoreMetrics::get().deadline_exceeded.get() > before);
        for (qi, st) in got.stats.iter().enumerate() {
            assert!(st.cancelled, "{name} query {qi} must be flagged cancelled");
            assert!(st.degraded, "{name} query {qi} must be flagged degraded");
            assert!(got.matches[qi].is_empty(), "{name}: no refinement ran");
        }
    }
    // The batch-level flags of the disk engine agree with the per-query ones.
    let (_, bytes) = fixture();
    let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    let ctx = QueryCtx::with_deadline(Arc::new(PollClock::default()), Duration::ZERO);
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model(), &opts, MEM_BUDGET, &ctx)
        .unwrap();
    assert!(batch.timing.deadline_hit);
    assert!(batch.timing.degraded);
}

/// The acceptance scenario: storage stalls hard, the batch runs
/// under a deadline on the same mock clock, and the call returns within the
/// budget plus at most one uninterruptible unit of work — here one section
/// load, i.e. four stalled column reads — with honest degraded accounting
/// and the `resilience.deadline_exceeded` counter incremented.
#[test]
fn deadline_on_stalled_storage_returns_within_budget() {
    let (_, bytes) = fixture();
    let clock = Arc::new(MockClock::new());
    let stall = Duration::from_millis(10);
    let fs = Arc::new(FaultyStorage::with_clock(
        MemStorage::new(bytes.clone()),
        FaultPlan {
            seed: 0xC4A0_5001,
            stall_every_n: 1,
            stall_ms: stall.as_millis() as u64,
            skip_reads: 5, // let open's metadata reads through clean
            ..FaultPlan::default()
        },
        clock.clone() as Arc<dyn Clock>,
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs))).unwrap();

    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();

    let budget = Duration::from_millis(25);
    let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, budget);
    let before = CoreMetrics::get().deadline_exceeded.get();
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model, &opts, MEM_BUDGET, &ctx)
        .unwrap();

    assert!(batch.timing.deadline_hit, "the stalls must blow the budget");
    assert!(batch.timing.degraded);
    assert!(batch.timing.sections_skipped > 0, "later sections skipped");
    assert!(batch.stats.iter().any(|st| st.cancelled));
    assert!(CoreMetrics::get().deadline_exceeded.get() > before);
    assert!(
        fs.stats().stalls > 0,
        "the stall schedule must actually fire"
    );

    // Bounded overshoot: once the deadline fires, only the in-flight
    // section-load attempt (4 column reads, each stalled once) may finish.
    let expires = ctx.deadline().unwrap().expires_at();
    let overshoot = clock.now().saturating_sub(expires);
    assert!(
        overshoot <= stall * 4,
        "overshoot {overshoot:?} exceeds one section-load unit ({:?})",
        stall * 4
    );
}

/// Wherever a query is *not* flagged degraded, its answer under a deadline
/// is bit-identical to the clean run; where it is, the answer is a subset of
/// the clean one; flags are mutually consistent. Checked on every engine
/// under a ctx that stops on poll `n`, for stops that land before the
/// filter, inside it, between sections and not at all, and on the disk
/// engine over storage whose stalls run a mock clock past the deadline.
#[test]
fn non_degraded_queries_answer_exactly_under_deadline() {
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();

    let check = |name: &str, got: &Answer, want: &Answer| {
        for qi in 0..qrefs.len() {
            let st = &got.stats[qi];
            // Flag consistency: degraded iff some of this query's work was
            // skipped or the query was cancelled.
            assert_eq!(
                st.degraded,
                st.sections_skipped > 0 || st.shard_skips > 0 || st.cancelled,
                "{name} query {qi} flag inconsistency: {st:?}"
            );
            if st.degraded {
                assert!(
                    keys(&got.matches[qi]).is_subset(&keys(&want.matches[qi])),
                    "{name}: degraded query {qi} returned a phantom match"
                );
            } else {
                assert_eq!(
                    got.matches[qi], want.matches[qi],
                    "{name}: non-degraded query {qi} must answer exactly"
                );
                assert_eq!(*st, want.stats[qi], "{name} query {qi}");
            }
        }
    };

    for engine in engines() {
        let name = engine.name();
        let want = engine.run(&qrefs, &opts, None);
        let mut stopped_some = false;
        let mut finished_some = false;
        for polls in [1, 2, 3, 5, 8, 13, 40, 100, 400, u64::MAX] {
            let got = engine.run(&qrefs, &opts, Some(&ctx_stopping_on_poll(polls)));
            check(&format!("{name} stop@{polls}"), &got, &want);
            stopped_some |= got.stats.iter().any(|st| st.degraded);
            finished_some |= got.stats.iter().any(|st| !st.degraded);
        }
        assert!(stopped_some && finished_some, "{name}: one-sided schedule");
    }

    let (_, bytes) = fixture();
    let clean =
        Engine::Disk(DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap());
    let want = clean.run(&qrefs, &opts, None);
    let clock = Arc::new(MockClock::new());
    let fs = FaultyStorage::with_clock(
        MemStorage::new(bytes.clone()),
        FaultPlan {
            seed: 0xC4A0_5002,
            stall_every_n: 3,
            stall_ms: 7,
            skip_reads: 5,
            ..FaultPlan::default()
        },
        clock.clone() as Arc<dyn Clock>,
    );
    let disk = DiskIndex::open_storage(Box::new(fs)).unwrap();
    let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::from_millis(40));
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model(), &opts, MEM_BUDGET, &ctx)
        .unwrap();
    assert_eq!(
        batch.timing.degraded,
        batch.stats.iter().any(|st| st.degraded) || batch.timing.sections_skipped > 0
    );
    let got = Answer {
        matches: batch.matches,
        stats: batch.stats,
        reports: batch.reports,
    };
    check("DiskIndex on stalled storage", &got, &want);
}

/// What an annotation says, whatever its numbers.
fn kind(annotation: &str) -> &'static str {
    const KINDS: [(&str, &str); 7] = [
        ("block budget truncated", "truncated"),
        ("below reachable", "missed-target"),
        ("cancelled before filtering", "empty-plan"),
        ("shard(s) lost", "shard-lost"),
        ("section(s) skipped", "sections-skipped"),
        ("deadline exceeded", "deadline"),
        ("cancelled", "cancelled"),
    ];
    KINDS
        .iter()
        .find(|(needle, _)| annotation.contains(needle))
        .map_or_else(|| panic!("unknown annotation {annotation:?}"), |(_, k)| *k)
}

/// The annotations a query's own counters call for: one per way its answer
/// may be incomplete, whichever engine produced the counters.
fn kinds_of_evidence(st: &QueryStats, cause: Option<CancelCause>) -> BTreeSet<&'static str> {
    let mut kinds = BTreeSet::new();
    let never_filtered = st.cancelled && st.nodes_expanded == 0 && st.blocks_selected == 0;
    if never_filtered {
        kinds.insert("empty-plan");
    }
    if st.truncated {
        kinds.insert("truncated");
    }
    if missed_target(st.mass, st.target) {
        kinds.insert("missed-target");
    }
    if st.shard_skips > 0 {
        kinds.insert("shard-lost");
    }
    if st.sections_skipped > 0 {
        kinds.insert("sections-skipped");
    }
    if st.cancelled {
        kinds.insert(match cause {
            Some(CancelCause::DeadlineExceeded) => "deadline",
            _ => "cancelled",
        });
    }
    kinds
}

/// Storage whose every read past `open` fails for good.
fn dead(bytes: Vec<u8>, skip_reads: u64) -> Box<dyn Storage> {
    Box::new(FaultyStorage::new(
        MemStorage::new(bytes),
        FaultPlan {
            seed: 0xC4A0_5006,
            dead_range: Some(0..u64::MAX),
            skip_reads,
            ..FaultPlan::default()
        },
    ))
}

/// The disk and sharded engines over storage that loses the records the
/// returned queries need: every section of the file, every replica of the
/// middle shard.
fn engines_with_lost_records() -> (Vec<Engine>, Vec<Vec<u8>>) {
    let (index, bytes) = fixture();
    let disk = DiskIndex::open_storage(dead(bytes.clone(), 5))
        .unwrap()
        .with_retry_policy(no_backoff(1, false));
    let plan = ShardPlan::balanced(index, 3);
    let (lo, hi) = plan.record_span(1);
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let shard = plan.shard_bytes(index, s, write_opts()).unwrap();
        storages.push(if s == 1 {
            vec![dead(shard.clone(), 8), dead(shard, 8)]
        } else {
            vec![Box::new(MemStorage::new(shard)) as Box<dyn Storage>]
        });
    }
    let sharded = ShardedIndex::open(plan, storages, sharded_options()).unwrap();
    let queries = (lo..hi)
        .step_by(7)
        .map(|i| index.records().fingerprint(i as usize).to_vec())
        .collect();
    (vec![Engine::Disk(disk), Engine::Sharded(sharded)], queries)
}

/// One table, three engines: a truncated plan, a target missed because a
/// stop cut the filter short, an expired deadline, a fired token and lost
/// records. Every report's annotations are exactly what its query's own
/// counters call for — so the same evidence reads the same in every engine —
/// and each case shows the evidence it was written for, in every engine it
/// applies to.
#[test]
fn same_evidence_is_annotated_the_same_in_every_engine() {
    struct Case {
        name: &'static str,
        opts: StatQueryOpts,
        ctx: fn() -> QueryCtx,
        lost_records: bool,
        /// Kinds every report of the case must show, per engine name.
        shows: fn(&str) -> &'static [&'static str],
    }
    let clean = StatQueryOpts::new(0.9, 12);
    let cases = [
        Case {
            name: "clean",
            opts: clean,
            ctx: QueryCtx::unbounded,
            lost_records: false,
            shows: |_| &[],
        },
        Case {
            name: "truncated plan",
            opts: StatQueryOpts {
                max_blocks: 2,
                ..clean
            },
            ctx: QueryCtx::unbounded,
            lost_records: false,
            shows: |_| &["truncated", "missed-target"],
        },
        Case {
            name: "stopped inside the first filter",
            opts: clean,
            ctx: || ctx_stopping_on_poll(2),
            lost_records: false,
            shows: |_| &["deadline"],
        },
        Case {
            name: "expired deadline",
            opts: clean,
            ctx: || ctx_stopping_on_poll(0),
            lost_records: false,
            shows: |_| &["empty-plan", "deadline"],
        },
        Case {
            name: "fired token",
            opts: clean,
            ctx: || {
                let ctx = QueryCtx::unbounded();
                ctx.token().cancel();
                ctx
            },
            lost_records: false,
            shows: |_| &["empty-plan", "cancelled"],
        },
        Case {
            name: "lost records",
            opts: clean,
            ctx: QueryCtx::unbounded,
            lost_records: true,
            shows: |engine| match engine {
                "DiskIndex" => &["sections-skipped"],
                _ => &["shard-lost"],
            },
        },
    ];
    for case in &cases {
        let (engines, qs) = if case.lost_records {
            engines_with_lost_records()
        } else {
            (engines(), queries())
        };
        let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
        for engine in engines {
            let at = format!("{}, {}", case.name, engine.name());
            let ctx = (case.ctx)().explain();
            let got = engine.run(&qrefs, &case.opts, Some(&ctx));
            assert_eq!(got.reports.len(), qrefs.len(), "{at}");
            for (qi, rep) in got.reports.iter().enumerate() {
                let said: BTreeSet<&str> = rep.annotations.iter().map(|a| kind(a)).collect();
                assert_eq!(
                    said,
                    kinds_of_evidence(&got.stats[qi], ctx.stop_cause()),
                    "{at}, query {qi}: {:?} for {:?}",
                    rep.annotations,
                    got.stats[qi]
                );
                assert_eq!(rep.degraded(), !said.is_empty(), "{at}, query {qi}");
            }
            // The first query is the one a mid-batch stop lands in.
            let first: BTreeSet<&str> =
                got.reports[0].annotations.iter().map(|a| kind(a)).collect();
            for shown in (case.shows)(engine.name()) {
                assert!(first.contains(shown), "{at}: no {shown:?} in {first:?}");
            }
            if case.name == "stopped inside the first filter" {
                let st = &got.stats[0];
                assert!(st.nodes_expanded > 0 && st.truncated, "{at}: {st:?}");
            }
        }
    }
}

/// A corner query cannot reach the α it was asked for — most of its
/// distortion mass lies outside the byte cube — and is not degraded for it:
/// it meets what it could reach, the report says so, and no engine prints
/// BELOW without an annotation to explain it.
#[test]
fn clamped_corner_query_meets_its_reachable_target() {
    let opts = StatQueryOpts::new(0.9, 12);
    let corner = [0u8; DIMS];
    for engine in engines() {
        let name = engine.name();
        let ctx = QueryCtx::unbounded().explain();
        let got = engine.run(&[&corner], &opts, Some(&ctx));
        let rep = &got.reports[0];
        assert!(
            rep.target < 0.1 && rep.target > 0.0,
            "{name}: {}",
            rep.target
        );
        assert_eq!(rep.target.to_bits(), got.stats[0].target.to_bits());
        assert!(rep.predicted_mass < opts.alpha, "{name}");
        assert!(!rep.degraded(), "{name}: {:?}", rep.annotations);
        let text = rep.to_text();
        assert!(text.contains("(meets reachable"), "{name}: {text}");
        assert!(!text.contains("BELOW"), "{name}: {text}");
        assert!(rep.to_json().contains("\"target\":0.0"), "{name}");
    }
}

/// The batch retry counter equals the number of transient faults the
/// storage actually injected — nothing hidden, nothing double-counted.
#[test]
fn retry_counters_match_injected_faults() {
    let (_, bytes) = fixture();
    let fs = Arc::new(FaultyStorage::new(
        MemStorage::new(bytes.clone()),
        FaultPlan {
            seed: 0xC4A0_5003,
            transient_error: 0.2,
            skip_reads: 5,
            ..FaultPlan::default()
        },
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(8, false));

    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
    let batch = disk
        .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
        .unwrap();

    let stats = fs.stats();
    assert!(stats.transient_errors > 0, "the schedule must fire");
    assert_eq!(
        u64::from(batch.timing.retries),
        stats.transient_errors,
        "every injected transient must appear as exactly one retry"
    );
    assert!(!batch.timing.degraded, "all transients retried away");
}

/// Strict mode is *loud*, never silent: an explicit deadline still yields
/// flagged partial results (a policy outcome), it does not turn into a
/// fabricated success or a hard error.
#[test]
fn strict_mode_keeps_deadline_partial_results_loud() {
    let (_, bytes) = fixture();
    let clock = Arc::new(MockClock::new());
    let fs = FaultyStorage::with_clock(
        MemStorage::new(bytes.clone()),
        FaultPlan {
            seed: 0xC4A0_5004,
            stall_every_n: 1,
            stall_ms: 10,
            skip_reads: 5,
            ..FaultPlan::default()
        },
        clock.clone() as Arc<dyn Clock>,
    );
    let disk = DiskIndex::open_storage(Box::new(fs))
        .unwrap()
        .with_retry_policy(no_backoff(2, true));

    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();
    let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::from_millis(15));
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model, &opts, MEM_BUDGET, &ctx)
        .unwrap();
    assert!(batch.timing.deadline_hit);
    assert!(
        batch.timing.degraded,
        "strict + deadline: flagged, not silent"
    );
    assert!(batch.stats.iter().any(|st| st.cancelled));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The retry backoff ladder is bounded: every per-attempt delay respects
    /// the cap, the ladder is monotone, and `max_total_backoff` is exactly
    /// the sum of the per-attempt delays (so callers can budget for it).
    #[test]
    fn retry_backoff_is_capped_and_sums_exactly(
        max_retries in 0u32..12,
        backoff_us in 0u64..5_000_000,
    ) {
        let p = RetryPolicy {
            max_retries,
            backoff: Duration::from_micros(backoff_us),
            strict: false,
        };
        let mut total = Duration::ZERO;
        for k in 0..max_retries {
            let d = p.delay_for(k);
            prop_assert!(d <= RetryPolicy::MAX_BACKOFF, "attempt {k} over cap");
            if k > 0 {
                prop_assert!(d >= p.delay_for(k - 1), "ladder must be monotone");
            }
            total = total.saturating_add(d);
        }
        prop_assert_eq!(total, p.max_total_backoff());
        prop_assert!(p.max_total_backoff() <= RetryPolicy::MAX_BACKOFF * max_retries.max(1));
    }
}
