//! End-to-end resilience properties of the batched query path: deadlines on
//! stalled storage, cancellation accounting, retry-backoff bounds, strict-
//! mode loudness and circuit-breaker short-circuiting.
//!
//! Everything time-dependent runs against a [`MockClock`] — fault-injection
//! stalls advance the clock instead of sleeping, so deadline behaviour is
//! exercised deterministically and at zero wall cost.

use proptest::prelude::*;
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy, WriteOpts};
use s3_core::{
    BreakerConfig, Clock, CoreMetrics, FaultPlan, FaultyStorage, IsotropicNormal, MemStorage,
    MockClock, QueryCtx, RecordBatch, S3Index, SectionBreakers, StatQueryOpts, TimeSource,
};
use s3_hilbert::HilbertCurve;
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

/// The index and its serialized S3IDX002 bytes, built once.
fn fixture() -> &'static (S3Index, Vec<u8>) {
    static FIX: OnceLock<(S3Index, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let index = build_index();
        let path =
            std::env::temp_dir().join(format!("s3-resilience-fixture-{}.idx", std::process::id()));
        DiskIndex::write_with(
            &index,
            &path,
            WriteOpts {
                table_depth: TABLE_DEPTH,
                block_size: BLOCK_SIZE,
                sketch_bits: 0,
            },
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
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

/// An already-expired deadline stops the batch before any section I/O:
/// every query comes back cancelled+degraded, empty, and the batch-level
/// flags agree.
#[test]
fn expired_deadline_stops_batch_before_sections() {
    let (_, bytes) = fixture();
    let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();

    let clock = Arc::new(MockClock::new());
    let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::ZERO);
    clock.advance(Duration::from_nanos(1));

    let before = CoreMetrics::get().deadline_exceeded.get();
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model, &opts, MEM_BUDGET, &ctx)
        .unwrap();
    assert!(batch.timing.deadline_hit);
    assert!(batch.timing.degraded);
    assert!(CoreMetrics::get().deadline_exceeded.get() > before);
    for (qi, st) in batch.stats.iter().enumerate() {
        assert!(st.cancelled, "query {qi} must be flagged cancelled");
        assert!(st.degraded, "query {qi} must be flagged degraded");
        assert!(batch.matches[qi].is_empty(), "no refinement ran");
    }
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
/// is bit-identical to the fault-free run; flags are mutually consistent.
#[test]
fn non_degraded_queries_answer_exactly_under_deadline() {
    let (_, bytes) = fixture();
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();

    let clean = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    let want = clean
        .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
        .unwrap();

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
    let got = disk
        .stat_query_batch_ctx(&qrefs, &model, &opts, MEM_BUDGET, &ctx)
        .unwrap();

    for qi in 0..qrefs.len() {
        let st = &got.stats[qi];
        // Flag consistency: degraded iff some of this query's work was
        // skipped or the query was cancelled.
        assert_eq!(
            st.degraded,
            st.sections_skipped > 0 || st.cancelled,
            "query {qi} flag inconsistency: {st:?}"
        );
        if !st.degraded {
            assert_eq!(
                got.matches[qi], want.matches[qi],
                "non-degraded query {qi} must answer exactly"
            );
        }
    }
    assert_eq!(
        got.timing.degraded,
        got.stats.iter().any(|st| st.degraded) || got.timing.sections_skipped > 0
    );
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

/// Sections that keep failing trip their breaker: later batches skip them
/// without touching storage, and the cooldown re-probes.
#[test]
fn breaker_short_circuits_repeatedly_failing_sections() {
    let (_, bytes) = fixture();
    // Kill the key column of records [300, 400) permanently.
    let data_off = 32 + (((1u64 << TABLE_DEPTH) + 1) * 8) + 4;
    let plan = FaultPlan {
        seed: 0xC4A0_5005,
        dead_range: Some(data_off + 300 * 32..data_off + 400 * 32),
        skip_reads: 5,
        ..FaultPlan::default()
    };
    let clock = Arc::new(MockClock::new());
    let fs = Arc::new(FaultyStorage::with_clock(
        MemStorage::new(bytes.clone()),
        plan,
        clock.clone() as Arc<dyn Clock>,
    ));
    let breakers = Arc::new(SectionBreakers::new(
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(5),
        },
        clock.clone() as Arc<dyn Clock>,
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(1, false))
        .with_breakers(Arc::clone(&breakers));

    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let (index, _) = fixture();
    let qs: Vec<Vec<u8>> = (300..400)
        .step_by(10)
        .map(|i| index.records().fingerprint(i).to_vec())
        .collect();
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();

    // Two batches of failures reach the threshold and trip the breakers.
    for _ in 0..2 {
        let b = disk
            .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
            .unwrap();
        assert!(b.timing.sections_skipped > 0);
        assert_eq!(b.timing.breaker_skips, 0, "breakers not yet tripped");
    }
    assert!(breakers.open_count() > 0, "repeated failures must trip");

    // While open: the dead sections are skipped with zero storage I/O.
    let dead_before = fs.stats().dead_reads;
    let b3 = disk
        .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
        .unwrap();
    assert!(b3.timing.breaker_skips > 0, "open breakers short-circuit");
    assert!(b3.timing.degraded);
    assert_eq!(
        fs.stats().dead_reads,
        dead_before,
        "no I/O may reach a breaker-skipped section"
    );

    // After the cooldown the half-open probe hits storage again.
    clock.advance(Duration::from_secs(6));
    let b4 = disk
        .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
        .unwrap();
    assert!(fs.stats().dead_reads > dead_before, "half-open re-probes");
    assert!(b4.timing.sections_skipped > 0);
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
