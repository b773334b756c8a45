//! Deterministic chaos harness for the query-lifecycle resilience layer.
//!
//! Drives `stat_query_batch`/`stat_query_batch_ctx` through scripted fault
//! schedules — latency stalls, torn pages, bit flips, transient errors, dead
//! regions — over a seed matrix, and asserts the resilience invariants on
//! every run:
//!
//! * **I1 — no panic**: every scenario runs under `catch_unwind`.
//! * **I2 — no deadlock**: every scenario runs under a watchdog; a hang is a
//!   violation, not a hung harness.
//! * **I3 — bounded overshoot**: a deadline may be overshot by at most one
//!   uninterruptible unit of work (one section-load attempt, i.e. four
//!   stalled column reads).
//! * **I4 — honest flags**: per-query `degraded` is true exactly when some
//!   of that query's work was skipped or the query was cancelled, and the
//!   batch flag agrees with the per-query flags.
//! * **I5 — bit-identical where clean**: wherever `degraded == false`, the
//!   matches are identical to the fault-free run.
//!
//! All time runs on a [`MockClock`] (stalls advance it, deadlines read it),
//! so the whole matrix is deterministic and costs zero wall-clock sleeping —
//! except the shard scenarios, which exercise the scatter-gather engine's
//! hedged reads and therefore stall on the real clock (tens of ms per run).
//!
//! Shard scenarios (`shard_kill`, `shard_slow`, `shard_flaky`,
//! `shard_split_brain`) add the distribution-level invariants: a lost shard
//! is accounted per affected query and never silently dropped, slow and
//! flaky replicas are absorbed by hedging/failover with bit-identical
//! answers, and a sketch of the unsharded index offered to a replica is
//! refused.
//!
//! Usage: `chaos [--scale quick|full]`. Writes `results/CHAOS.json`
//! (`version: 2` of the schema, with the shard scenarios included) and
//! exits non-zero if any invariant was violated.

use s3_bench::{results_dir, Scale};
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy, WriteOpts};
use s3_core::{
    Clock, CoreMetrics, FaultPlan, FaultyStorage, HedgeConfig, IsotropicNormal, Match, MemStorage,
    MockClock, QueryCtx, RecordBatch, S3Index, ShardPlan, ShardedBatchResult, ShardedIndex,
    ShardedOptions, Sketch, SketchParams, StatQueryOpts, Storage, TimeSource,
};
use s3_hilbert::HilbertCurve;
use s3_obs::JsonWriter;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const DIMS: usize = 6;
const TABLE_DEPTH: u32 = 8;
const BLOCK_SIZE: u32 = 128;
/// Memory budget small enough to force a multi-section split.
const MEM_BUDGET: u64 = 8 << 10;
/// Wall-clock watchdog per scenario run (I2). Generous: a quick run takes
/// milliseconds; only a real deadlock gets anywhere near it.
const WATCHDOG: Duration = Duration::from_secs(120);

/// One scenario × seed execution.
struct RunReport {
    scenario: &'static str,
    seed: u64,
    /// Violated invariants; empty = the run passed.
    violations: Vec<String>,
    /// Counters worth keeping in the JSON report.
    counters: Vec<(&'static str, f64)>,
}

/// Everything a fault scenario needs: the serialized index, the reference
/// (fault-free) answers, and the query workload.
#[derive(Clone)]
struct Workload {
    bytes: Vec<u8>,
    /// The section sketch of `bytes`, built from the opened index.
    sketch: Sketch,
    queries: Vec<Vec<u8>>,
    baseline: Vec<Vec<Match>>,
}

fn build_workload(n_records: usize, n_queries: usize) -> Workload {
    let mut s = 0x5EED_C405u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut batch = RecordBatch::new(DIMS);
    for i in 0..n_records {
        let fp: Vec<u8> = (0..DIMS).map(|_| (next() >> 24) as u8).collect();
        batch.push(&fp, (i % 7) as u32, i as u32);
    }
    let index = S3Index::build(HilbertCurve::new(DIMS, 8).unwrap(), batch);
    let bytes = DiskIndex::encode_to_vec(
        &index,
        WriteOpts {
            table_depth: TABLE_DEPTH,
            block_size: BLOCK_SIZE,
        },
    )
    .unwrap();

    let step = (n_records / n_queries).max(1);
    let queries: Vec<Vec<u8>> = (0..n_queries)
        .map(|i| index.records().fingerprint(i * step).to_vec())
        .collect();
    let qrefs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let clean = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    let sketch = clean.build_sketch(SketchParams::default()).unwrap();
    let baseline = clean
        .stat_query_batch(&qrefs, &model(), &opts(), MEM_BUDGET)
        .unwrap()
        .matches;
    Workload {
        bytes,
        sketch,
        queries,
        baseline,
    }
}

fn model() -> IsotropicNormal {
    IsotropicNormal::new(DIMS, 12.0)
}

fn opts() -> StatQueryOpts {
    StatQueryOpts::new(0.9, 12)
}

fn no_backoff(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        backoff: Duration::ZERO,
        strict: false,
    }
}

/// Runs `f` under a panic guard and a watchdog (I1 + I2). On timeout the
/// worker thread is leaked — the harness reports the deadlock instead of
/// becoming one.
fn guarded(f: impl FnOnce() -> RunReport + Send + 'static) -> Result<RunReport, String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = tx.send(out);
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(Ok(report)) => {
            let _ = handle.join();
            Ok(report)
        }
        Ok(Err(panic)) => {
            let _ = handle.join();
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(format!("I1 violated: panic: {msg}"))
        }
        Err(_) => Err(format!(
            "I2 violated: no completion within {WATCHDOG:?} (deadlock?)"
        )),
    }
}

/// Shared I4/I5 checks over a completed batch.
fn check_flags_and_identity(
    batch: &s3_core::pseudo_disk::BatchResult,
    wl: &Workload,
    violations: &mut Vec<String>,
) {
    for qi in 0..wl.queries.len() {
        let st = &batch.stats[qi];
        if st.degraded != (st.sections_skipped > 0 || st.cancelled) {
            violations.push(format!(
                "I4 violated: query {qi} degraded={} but sections_skipped={} cancelled={}",
                st.degraded, st.sections_skipped, st.cancelled
            ));
        }
        if !st.degraded && batch.matches[qi] != wl.baseline[qi] {
            violations.push(format!(
                "I5 violated: query {qi} not flagged degraded yet answers differ \
                 ({} vs {} matches)",
                batch.matches[qi].len(),
                wl.baseline[qi].len()
            ));
        }
    }
    let any_query_degraded = batch.stats.iter().any(|st| st.degraded);
    if batch.timing.degraded != (any_query_degraded || batch.timing.sections_skipped > 0) {
        violations.push(format!(
            "I4 violated: batch degraded={} disagrees with per-query flags",
            batch.timing.degraded
        ));
    }
}

/// Pure-stall storage under a mock-clock deadline: the batch must come back
/// inside budget + one section-load unit, flagged honestly (I3/I4/I5), with
/// the deadline metric incremented.
fn scenario_stall(wl: Workload, seed: u64) -> RunReport {
    let clock = Arc::new(MockClock::new());
    let stall = Duration::from_millis(10);
    let fs = Arc::new(FaultyStorage::with_clock(
        MemStorage::new(wl.bytes.clone()),
        FaultPlan {
            seed,
            stall_every_n: 1,
            stall_ms: stall.as_millis() as u64,
            skip_reads: 5,
            ..FaultPlan::default()
        },
        clock.clone() as Arc<dyn Clock>,
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs))).unwrap();
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();
    let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::from_millis(25));
    let before = CoreMetrics::get().deadline_exceeded.get();

    let mut violations = Vec::new();
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model(), &opts(), MEM_BUDGET, &ctx)
        .unwrap();
    check_flags_and_identity(&batch, &wl, &mut violations);
    if !batch.timing.deadline_hit {
        violations.push("stall run must hit its deadline".into());
    }
    if CoreMetrics::get().deadline_exceeded.get() <= before {
        violations.push("resilience.deadline_exceeded not incremented".into());
    }
    let expires = ctx.deadline().unwrap().expires_at();
    let overshoot = clock.now().saturating_sub(expires);
    if overshoot > stall * 4 {
        violations.push(format!(
            "I3 violated: overshoot {overshoot:?} > one section-load unit ({:?})",
            stall * 4
        ));
    }
    RunReport {
        scenario: "stall",
        seed,
        violations,
        counters: vec![
            ("stalls", fs.stats().stalls as f64),
            ("sections_skipped", batch.timing.sections_skipped as f64),
            ("overshoot_ms", overshoot.as_secs_f64() * 1e3),
        ],
    }
}

/// Ok-returning corruption (torn pages / bit flips): the CRC layer must
/// catch every one; retries re-read clean data, so the final answer is
/// exact and nothing is flagged.
fn scenario_corruption(wl: Workload, seed: u64, torn: f64, flip: f64) -> RunReport {
    let scenario = if torn > 0.0 { "torn" } else { "bitflip" };
    let fs = Arc::new(FaultyStorage::new(
        MemStorage::new(wl.bytes.clone()),
        FaultPlan {
            seed,
            torn_read: torn,
            bit_flip: flip,
            skip_reads: 5,
            ..FaultPlan::default()
        },
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(10));
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();

    let mut violations = Vec::new();
    match disk.stat_query_batch(&qrefs, &model(), &opts(), MEM_BUDGET) {
        Ok(batch) => {
            check_flags_and_identity(&batch, &wl, &mut violations);
            if fs.stats().total() > 0 && batch.timing.retries == 0 {
                violations.push("corruption fired but no retry was recorded".into());
            }
            RunReport {
                scenario,
                seed,
                violations,
                counters: vec![
                    ("injected", fs.stats().total() as f64),
                    ("retries", f64::from(batch.timing.retries)),
                    ("sections_skipped", batch.timing.sections_skipped as f64),
                ],
            }
        }
        Err(e) => {
            violations.push(format!(
                "non-strict corruption run must degrade, not error: {e}"
            ));
            RunReport {
                scenario,
                seed,
                violations,
                counters: vec![],
            }
        }
    }
}

/// Transient errors with a deep retry ladder: everything retries away to
/// the exact baseline answer, and the retry counter matches the injection
/// counter one-for-one.
fn scenario_transient(wl: Workload, seed: u64) -> RunReport {
    let fs = Arc::new(FaultyStorage::new(
        MemStorage::new(wl.bytes.clone()),
        FaultPlan {
            seed,
            transient_error: 0.15,
            skip_reads: 5,
            ..FaultPlan::default()
        },
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(10));
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();

    let mut violations = Vec::new();
    let batch = disk
        .stat_query_batch(&qrefs, &model(), &opts(), MEM_BUDGET)
        .unwrap();
    check_flags_and_identity(&batch, &wl, &mut violations);
    if batch.timing.degraded {
        violations.push("transients within the retry budget must not degrade".into());
    }
    if u64::from(batch.timing.retries) != fs.stats().transient_errors {
        violations.push(format!(
            "retry counter {} != injected transients {}",
            batch.timing.retries,
            fs.stats().transient_errors
        ));
    }
    RunReport {
        scenario: "transient",
        seed,
        violations,
        counters: vec![
            ("injected", fs.stats().transient_errors as f64),
            ("retries", f64::from(batch.timing.retries)),
        ],
    }
}

/// A permanently dead region: affected queries are flagged, clean queries
/// answer exactly, nothing panics.
fn scenario_dead(wl: Workload, seed: u64) -> RunReport {
    // S3IDX004: header, axis bytes, table and meta CRC, then the prefix
    // column, 8 bytes a record.
    let data_off = 32 + DIMS as u64 + (((1u64 << TABLE_DEPTH) + 1) * 8) + 4;
    let fs = Arc::new(FaultyStorage::new(
        MemStorage::new(wl.bytes.clone()),
        FaultPlan {
            seed,
            dead_range: Some(data_off + 300 * 8..data_off + 400 * 8),
            skip_reads: 5,
            ..FaultPlan::default()
        },
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(2));
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();

    let mut violations = Vec::new();
    let batch = disk
        .stat_query_batch(&qrefs, &model(), &opts(), MEM_BUDGET)
        .unwrap();
    check_flags_and_identity(&batch, &wl, &mut violations);
    if fs.stats().dead_reads > 0 && !batch.timing.degraded {
        violations.push("dead region was hit but the batch is not degraded".into());
    }
    RunReport {
        scenario: "dead",
        seed,
        violations,
        counters: vec![
            ("dead_reads", fs.stats().dead_reads as f64),
            ("sections_skipped", batch.timing.sections_skipped as f64),
        ],
    }
}

/// The kitchen sink: stalls + transients + torn pages under a deadline.
/// Every invariant must still hold; overshoot gets the same one-load bound
/// (a fired token ends the retry ladder early).
fn scenario_mixed(wl: Workload, seed: u64) -> RunReport {
    let clock = Arc::new(MockClock::new());
    let stall = Duration::from_millis(3);
    let fs = Arc::new(FaultyStorage::with_clock(
        MemStorage::new(wl.bytes.clone()),
        FaultPlan {
            seed,
            transient_error: 0.05,
            torn_read: 0.02,
            stall_every_n: 7,
            stall_ms: stall.as_millis() as u64,
            skip_reads: 5,
            ..FaultPlan::default()
        },
        clock.clone() as Arc<dyn Clock>,
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(4));
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();
    let ctx = QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::from_millis(30));

    let mut violations = Vec::new();
    let batch = disk
        .stat_query_batch_ctx(&qrefs, &model(), &opts(), MEM_BUDGET, &ctx)
        .unwrap();
    check_flags_and_identity(&batch, &wl, &mut violations);
    if batch.timing.deadline_hit {
        let expires = ctx.deadline().unwrap().expires_at();
        let overshoot = clock.now().saturating_sub(expires);
        if overshoot > stall * 4 {
            violations.push(format!(
                "I3 violated: overshoot {overshoot:?} > one section-load unit"
            ));
        }
    }
    RunReport {
        scenario: "mixed",
        seed,
        violations,
        counters: vec![
            ("injected", fs.stats().total() as f64),
            ("stalls", fs.stats().stalls as f64),
            ("retries", f64::from(batch.timing.retries)),
            ("sections_skipped", batch.timing.sections_skipped as f64),
            (
                "deadline_hit",
                f64::from(u8::from(batch.timing.deadline_hit)),
            ),
        ],
    }
}

/// The sketch prefilter under chaos, two sub-scenarios in one run: a
/// sketch over clean storage must skip sections while staying
/// bit-identical to the sketch-less baseline; and a sketch over faulty
/// storage must keep every resilience invariant — the sketch may only ever
/// remove true-negative section loads, never flip an answer.
fn scenario_sketch(wl: Workload, seed: u64) -> RunReport {
    let mut violations = Vec::new();
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();
    let clean = DiskIndex::open_storage(Box::new(MemStorage::new(wl.bytes.clone()))).unwrap();
    // The smallest budget there is: the densest slot's bytes. Sections are
    // packed up to the budget and a skip needs every range in a section to
    // probe empty, so the finest packing gives the sketch the most loads to
    // prove unnecessary.
    let sketch_budget = clean.min_section_bytes();
    let baseline = clean
        .stat_query_batch(&qrefs, &model(), &opts(), sketch_budget)
        .unwrap();

    // (a) Clean storage: bit-identical, with skips firing.
    let mut disk = DiskIndex::open_storage(Box::new(MemStorage::new(wl.bytes.clone()))).unwrap();
    if !disk.attach_sketch(wl.sketch.clone()) {
        violations.push("the index's own sketch refused to attach".into());
    }
    let sketched = disk
        .stat_query_batch(&qrefs, &model(), &opts(), sketch_budget)
        .unwrap();
    if sketched.matches != baseline.matches {
        violations.push("sketch-on answers differ from sketch-off baseline".into());
    }
    for qi in 0..qrefs.len() {
        if sketched.stats[qi].entries_scanned != baseline.stats[qi].entries_scanned {
            violations.push(format!(
                "query {qi}: sketch changed the records scanned ({} vs {})",
                sketched.stats[qi].entries_scanned, baseline.stats[qi].entries_scanned
            ));
            break;
        }
    }
    if sketched.timing.sketch_skips == 0 {
        violations.push("sketch scenario is vacuous: no section was ever skipped".into());
    }
    if sketched.timing.degraded {
        violations.push("sketch skips must never count as degradation".into());
    }

    // (b) Faulty storage: transient corruption is retried away to the
    // exact baseline, invariants intact.
    let fs = Arc::new(FaultyStorage::new(
        MemStorage::new(wl.bytes.clone()),
        FaultPlan {
            seed,
            transient_error: 0.1,
            bit_flip: 0.05,
            skip_reads: 5,
            ..FaultPlan::default()
        },
    ));
    let mut disk = DiskIndex::open_storage(Box::new(Arc::clone(&fs)))
        .unwrap()
        .with_retry_policy(no_backoff(10));
    if !disk.attach_sketch(wl.sketch.clone()) {
        violations.push("the index's own sketch refused to attach over faulty storage".into());
    }
    let faulted = disk
        .stat_query_batch(&qrefs, &model(), &opts(), sketch_budget)
        .unwrap();
    for qi in 0..qrefs.len() {
        if !faulted.stats[qi].degraded && faulted.matches[qi] != baseline.matches[qi] {
            violations.push(format!(
                "I5 violated: query {qi} clean under faults but differs with the sketch on"
            ));
            break;
        }
    }
    RunReport {
        scenario: "sketch",
        seed,
        violations,
        counters: vec![
            ("sketch_skips", sketched.timing.sketch_skips as f64),
            ("sections_loaded", sketched.timing.sections_loaded as f64),
            (
                "baseline_sections_loaded",
                baseline.timing.sections_loaded as f64,
            ),
            ("faulted_injected", fs.stats().total() as f64),
        ],
    }
}

/// Rebuilds the in-memory index behind a workload, on the stored curve, so
/// shard scenarios can re-slice it into per-shard replica files.
fn rebuild_index(wl: &Workload) -> S3Index {
    let disk = DiskIndex::open_storage(Box::new(MemStorage::new(wl.bytes.clone()))).unwrap();
    let records = disk.to_record_batch().unwrap();
    S3Index::build_on(disk.curve().clone(), records)
}

fn shard_write_opts() -> WriteOpts {
    WriteOpts {
        table_depth: TABLE_DEPTH,
        block_size: BLOCK_SIZE,
    }
}

/// Shard-aware I4/I5: `degraded` must be true exactly when sections or
/// whole shards were skipped (or the query was cancelled), and every query
/// not flagged must be bit-identical to the fault-free single-node answer.
fn check_shard_flags_and_identity(
    got: &ShardedBatchResult,
    wl: &Workload,
    violations: &mut Vec<String>,
) {
    for qi in 0..wl.queries.len() {
        let st = &got.batch.stats[qi];
        if st.degraded != (st.sections_skipped > 0 || st.shard_skips > 0 || st.cancelled) {
            violations.push(format!(
                "I4 violated: query {qi} degraded={} but sections_skipped={} \
                 shard_skips={} cancelled={}",
                st.degraded, st.sections_skipped, st.shard_skips, st.cancelled
            ));
        }
        if !st.degraded && got.batch.matches[qi] != wl.baseline[qi] {
            violations.push(format!(
                "I5 violated: query {qi} not flagged degraded yet answers differ \
                 ({} vs {} matches)",
                got.batch.matches[qi].len(),
                wl.baseline[qi].len()
            ));
        }
    }
    let any_query_degraded = got.batch.stats.iter().any(|st| st.degraded);
    if any_query_degraded && !got.batch.timing.degraded {
        violations.push("I4 violated: a query degraded but the batch flag is clean".into());
    }
    if got.shard_skips > 0 && !got.batch.timing.degraded {
        violations.push("I4 violated: a shard was lost but the batch flag is clean".into());
    }
}

/// Every replica of one shard is dead: the batch completes, the lost key
/// range is honestly accounted per affected query, and queries that never
/// needed the dead shard stay bit-identical (I5 restricted to survivors).
fn scenario_shard_kill(wl: Workload, seed: u64) -> RunReport {
    let index = rebuild_index(&wl);
    let plan = ShardPlan::balanced(&index, 4);
    let dead = 1 + (seed as usize % 3); // vary the victim across seeds
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let bytes = plan.shard_bytes(&index, s, shard_write_opts()).unwrap();
        let mk = |bytes: Vec<u8>| -> Box<dyn Storage> {
            if s == dead {
                Box::new(FaultyStorage::new(
                    MemStorage::new(bytes),
                    FaultPlan {
                        seed,
                        skip_reads: 8,
                        dead_range: Some(0..u64::MAX),
                        ..FaultPlan::default()
                    },
                ))
            } else {
                Box::new(MemStorage::new(bytes))
            }
        };
        storages.push(vec![mk(bytes.clone()), mk(bytes)]);
    }
    let sharded = ShardedIndex::open(
        plan,
        storages,
        ShardedOptions {
            mem_budget: MEM_BUDGET,
            retry: no_backoff(0),
            ..ShardedOptions::default()
        },
    )
    .unwrap();
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();

    let mut violations = Vec::new();
    let got = sharded.stat_query_batch(&qrefs, &model(), &opts()).unwrap();
    check_shard_flags_and_identity(&got, &wl, &mut violations);
    if got.shard_skips != 1 {
        violations.push(format!(
            "exactly one shard was killed but shard_skips = {}",
            got.shard_skips
        ));
    }
    let affected = got
        .batch
        .stats
        .iter()
        .filter(|st| st.shard_skips > 0)
        .count();
    if affected == 0 {
        violations.push("a shard was lost but no query accounts for it".into());
    }
    RunReport {
        scenario: "shard_kill",
        seed,
        violations,
        counters: vec![
            ("shard_skips", got.shard_skips as f64),
            ("affected_queries", affected as f64),
            ("failovers", got.failovers as f64),
        ],
    }
}

/// A uniformly slow primary replica with a clean backup: hedged reads must
/// fire and the merged answer must stay bit-identical — latency faults are
/// absorbed, never surfaced as degradation.
fn scenario_shard_slow(wl: Workload, seed: u64) -> RunReport {
    let index = rebuild_index(&wl);
    let plan = ShardPlan::balanced(&index, 3);
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let bytes = plan.shard_bytes(&index, s, shard_write_opts()).unwrap();
        // Real wall-clock stalls: hedging triggers on observed latency, so
        // this scenario cannot run on the mock clock.
        let slow: Box<dyn Storage> = Box::new(FaultyStorage::new(
            MemStorage::new(bytes.clone()),
            FaultPlan {
                seed: seed ^ s as u64,
                skip_reads: 8,
                stall_every_n: 1,
                stall_ms: 40,
                ..FaultPlan::default()
            },
        ));
        storages.push(vec![slow, Box::new(MemStorage::new(bytes))]);
    }
    let sharded = ShardedIndex::open(
        plan,
        storages,
        ShardedOptions {
            mem_budget: MEM_BUDGET,
            hedge: HedgeConfig {
                enabled: true,
                min_delay: Duration::from_millis(2),
                ..HedgeConfig::default()
            },
            ..ShardedOptions::default()
        },
    )
    .unwrap();
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();

    let mut violations = Vec::new();
    let got = sharded.stat_query_batch(&qrefs, &model(), &opts()).unwrap();
    check_shard_flags_and_identity(&got, &wl, &mut violations);
    if got.hedges == 0 {
        violations.push("stalled primaries never triggered a hedged read".into());
    }
    if got.shard_skips > 0 || got.batch.timing.degraded {
        violations.push("slow replicas must be hedged around, not degrade the batch".into());
    }
    if got.batch.matches != wl.baseline {
        violations.push("hedged batch differs from the fault-free baseline".into());
    }
    RunReport {
        scenario: "shard_slow",
        seed,
        violations,
        counters: vec![
            ("hedges", got.hedges as f64),
            ("hedge_wins", got.hedge_wins as f64),
            ("failovers", got.failovers as f64),
        ],
    }
}

/// A flaky primary that errors on nearly every read, with a clean backup:
/// failover must recover every shard to the exact answer, no degradation.
fn scenario_shard_flaky(wl: Workload, seed: u64) -> RunReport {
    let index = rebuild_index(&wl);
    let plan = ShardPlan::balanced(&index, 3);
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let bytes = plan.shard_bytes(&index, s, shard_write_opts()).unwrap();
        let flaky: Box<dyn Storage> = Box::new(FaultyStorage::new(
            MemStorage::new(bytes.clone()),
            FaultPlan {
                seed: seed ^ (s as u64) << 8,
                skip_reads: 8,
                transient_error: 0.95,
                ..FaultPlan::default()
            },
        ));
        storages.push(vec![flaky, Box::new(MemStorage::new(bytes))]);
    }
    let sharded = ShardedIndex::open(
        plan,
        storages,
        ShardedOptions {
            mem_budget: MEM_BUDGET,
            retry: no_backoff(0),
            hedge: HedgeConfig {
                enabled: false,
                ..HedgeConfig::default()
            },
            ..ShardedOptions::default()
        },
    )
    .unwrap();
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();

    let mut violations = Vec::new();
    let got = sharded.stat_query_batch(&qrefs, &model(), &opts()).unwrap();
    check_shard_flags_and_identity(&got, &wl, &mut violations);
    if got.failovers == 0 {
        violations.push("flaky primaries never failed over".into());
    }
    if got.shard_skips > 0 || got.batch.timing.degraded {
        violations.push("clean backups must absorb flaky primaries completely".into());
    }
    if got.batch.matches != wl.baseline {
        violations.push("failover batch differs from the fault-free baseline".into());
    }
    RunReport {
        scenario: "shard_flaky",
        seed,
        violations,
        counters: vec![
            ("failovers", got.failovers as f64),
            ("shard_skips", got.shard_skips as f64),
        ],
    }
}

/// Split brain via a stale sketch: a replica is offered the sketch of the
/// FULL index (different records, different meta binding). The attach must
/// be refused — a sketch bound to other data could silently drop true
/// positives, the one failure mode the prefilter is never allowed.
fn scenario_shard_split_brain(wl: Workload, seed: u64) -> RunReport {
    let index = rebuild_index(&wl);
    let plan = ShardPlan::balanced(&index, 2);
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let bytes = plan.shard_bytes(&index, s, shard_write_opts()).unwrap();
        storages.push(vec![
            Box::new(MemStorage::new(bytes.clone())),
            Box::new(MemStorage::new(bytes)),
        ]);
    }
    let mut sharded = ShardedIndex::open(
        plan,
        storages,
        ShardedOptions {
            mem_budget: MEM_BUDGET,
            ..ShardedOptions::default()
        },
    )
    .unwrap();
    let mut violations = Vec::new();
    // The stale sketch belongs to the unsharded index; every shard file
    // has a different record set, so every replica must refuse it.
    let attached = sharded.replica_mut(0, 0).attach_sketch(wl.sketch.clone());
    if attached {
        violations.push("replica accepted a sketch built for different data".into());
    }
    let qrefs: Vec<&[u8]> = wl.queries.iter().map(|q| q.as_slice()).collect();
    let got = sharded.stat_query_batch(&qrefs, &model(), &opts()).unwrap();
    check_shard_flags_and_identity(&got, &wl, &mut violations);
    if got.batch.matches != wl.baseline {
        violations.push("stale-sketch run differs from the fault-free baseline".into());
    }
    if got.batch.timing.sketch_skips != 0 {
        violations.push("a refused sketch must never skip section loads".into());
    }
    RunReport {
        scenario: "shard_split_brain",
        seed,
        violations,
        counters: vec![
            ("stale_attached", f64::from(u8::from(attached))),
            ("sketch_skips", got.batch.timing.sketch_skips as f64),
        ],
    }
}

fn report_json(reports: &[RunReport], failed: usize) -> String {
    let mut w = JsonWriter::indented();
    w.obj()
        .field("id", "chaos")
        .field("version", 2u64)
        .field("runs", reports.len())
        .field("failed", failed);
    w.key("scenarios").arr();
    for r in reports {
        w.obj()
            .field("scenario", r.scenario)
            .field("seed", r.seed)
            .field("passed", r.violations.is_empty());
        w.key("violations").arr().vals(&r.violations).end();
        w.key("counters").obj().fields(&r.counters).end().end();
    }
    w.finish()
}

fn main() {
    let scale = Scale::from_args();
    let (n_records, n_queries) = scale.pick((600, 24), (2400, 60));
    let seeds: Vec<u64> = scale
        .pick(0xC4A0_0001u64..0xC4A0_0004, 0xC4A0_0001u64..0xC4A0_0009)
        .collect();
    println!(
        "chaos: {} records, {} queries, {} seeds per scenario",
        n_records,
        n_queries,
        seeds.len()
    );
    let wl = build_workload(n_records, n_queries);

    let mut reports: Vec<RunReport> = Vec::new();
    let mut hard_failures: Vec<String> = Vec::new();
    for &seed in &seeds {
        type Runner = Box<dyn FnOnce() -> RunReport + Send>;
        let runs: Vec<(&'static str, Runner)> = vec![
            ("stall", {
                let wl = wl.clone();
                Box::new(move || scenario_stall(wl, seed))
            }),
            ("torn", {
                let wl = wl.clone();
                Box::new(move || scenario_corruption(wl, seed, 0.08, 0.0))
            }),
            ("bitflip", {
                let wl = wl.clone();
                Box::new(move || scenario_corruption(wl, seed, 0.0, 0.08))
            }),
            ("transient", {
                let wl = wl.clone();
                Box::new(move || scenario_transient(wl, seed))
            }),
            ("dead", {
                let wl = wl.clone();
                Box::new(move || scenario_dead(wl, seed))
            }),
            ("mixed", {
                let wl = wl.clone();
                Box::new(move || scenario_mixed(wl, seed))
            }),
            ("sketch", {
                let wl = wl.clone();
                Box::new(move || scenario_sketch(wl, seed))
            }),
            ("shard_kill", {
                let wl = wl.clone();
                Box::new(move || scenario_shard_kill(wl, seed))
            }),
            ("shard_slow", {
                let wl = wl.clone();
                Box::new(move || scenario_shard_slow(wl, seed))
            }),
            ("shard_flaky", {
                let wl = wl.clone();
                Box::new(move || scenario_shard_flaky(wl, seed))
            }),
            ("shard_split_brain", {
                let wl = wl.clone();
                Box::new(move || scenario_shard_split_brain(wl, seed))
            }),
        ];
        for (name, run) in runs {
            match guarded(run) {
                Ok(report) => reports.push(report),
                Err(violation) => {
                    hard_failures.push(format!("{name} (seed {seed:#x}): {violation}"));
                    reports.push(RunReport {
                        scenario: name,
                        seed,
                        violations: vec![violation],
                        counters: vec![],
                    });
                }
            }
        }
    }

    let failed = reports.iter().filter(|r| !r.violations.is_empty()).count();
    for r in &reports {
        let status = if r.violations.is_empty() {
            "ok"
        } else {
            "FAIL"
        };
        println!("  [{status}] {:<10} seed {:#010x}", r.scenario, r.seed);
        for v in &r.violations {
            println!("         !! {v}");
        }
    }
    let path = results_dir().join("CHAOS.json");
    std::fs::create_dir_all(results_dir()).unwrap();
    std::fs::write(&path, report_json(&reports, failed)).unwrap();
    println!(
        "chaos: {}/{} runs passed — report at {}",
        reports.len() - failed,
        reports.len(),
        path.display()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_obs::JsonValue;

    fn fixture() -> Vec<RunReport> {
        vec![
            RunReport {
                scenario: "shard_kill",
                seed: 0xC4A0_0001,
                violations: vec![],
                counters: vec![("shard_skips", 1.0), ("hedges", 0.0), ("ratio", 0.375)],
            },
            RunReport {
                scenario: "stall",
                seed: u64::MAX,
                violations: vec!["I3 violated: \"overshoot\"\n2 units".into(), "I4".into()],
                counters: vec![],
            },
        ]
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{
  "id": "chaos",
  "version": 2,
  "runs": 2,
  "failed": 1,
  "scenarios": [
    {"scenario": "shard_kill", "seed": 3298820097, "passed": true, "violations": [], "counters": {"shard_skips": 1, "hedges": 0, "ratio": 0.375}},
    {"scenario": "stall", "seed": 18446744073709551615, "passed": false, "violations": ["I3 violated: \"overshoot\"\n2 units", "I4"], "counters": {}}
  ]
}"#;

    #[test]
    fn report_json_parses_to_the_parent_tree() {
        assert_eq!(
            JsonValue::parse(&report_json(&fixture(), 1)),
            JsonValue::parse(PARENT)
        );
        // The parent printed a counter with a bare `{v}`: a NaN made the
        // whole report unparseable. It is `null` now.
        let mut runs = fixture();
        runs[0].counters.push(("nan", f64::NAN));
        let doc = JsonValue::parse(&report_json(&runs, 1)).unwrap();
        let counters = doc.get("scenarios").unwrap().as_array().unwrap()[0].get("counters");
        assert_eq!(counters.unwrap().get("nan"), Some(&JsonValue::Null));
    }
}
