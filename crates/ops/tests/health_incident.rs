//! The PR's acceptance scenario, end to end: a deterministic fault
//! workload (seeded `FaultyStorage` stalls + torn reads under a
//! `MockClock`) drives the health engine from `Healthy` to
//! `Degraded`/`Critical`, the flight recorder dumps an `IncidentReport`
//! containing the triggering rule, recent spans and storage-engine
//! state — and after the faults stop, the verdict recovers to `Healthy`
//! through hysteresis without flapping.
//!
//! Single `#[test]`: the span/event sinks and the metrics registry are
//! process-global, so the whole scenario runs as one sequential story.

use s3_core::filter::select_blocks_best_first;
use s3_core::pseudo_disk::DiskIndex;
use s3_core::pseudo_disk::WriteOpts;
use s3_core::{
    Clock, CoreMetrics, DurableIndex, DurableOptions, EngineState, FaultPlan, FaultyStorage,
    IsotropicNormal, MemStorage, MergeOutcome, MockClock, QueryCtx, RecordBatch, S3Index,
    SharedMemStorage, StatQueryOpts, TimeSource,
};
use s3_hilbert::HilbertCurve;
use s3_obs::{registry, JsonValue};
use s3_ops::{
    default_health_rules, install_event_tee, FlightRecorder, HealthEngine, IncidentTrigger,
    MetricWindows, RecorderConfig, Verdict,
};
use s3_testkit::TempDir;
use std::sync::Arc;
use std::time::Duration;

const DIMS: usize = 6;
const N: usize = 600;
const MEM_BUDGET: u64 = 8 << 10;

fn build_index() -> S3Index {
    let mut s = 0x5EED_0007u64;
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

fn encode(index: &S3Index) -> Vec<u8> {
    DiskIndex::encode_to_vec(
        index,
        WriteOpts {
            table_depth: 8,
            block_size: 128,
        },
    )
    .unwrap()
}

/// Probes are real stored fingerprints, so clean batches find what they
/// look for.
fn queries(index: &S3Index) -> Vec<Vec<u8>> {
    (0..10)
        .map(|i| index.records().fingerprint(i * 19).to_vec())
        .collect()
}

/// A tiny clean durable index whose engine state stamps the dumps.
fn durable_fixture() -> DurableIndex {
    let curve = HilbertCurve::new(DIMS, 8).unwrap();
    let data = SharedMemStorage::new();
    let wal = SharedMemStorage::new();
    let mut idx = DurableIndex::create(
        Box::new(data),
        Box::new(wal),
        curve,
        DurableOptions::default(),
    )
    .unwrap();
    for i in 0..32u32 {
        let fp: Vec<u8> = (0..DIMS)
            .map(|d| ((i as usize * 31 + d * 7) % 251) as u8)
            .collect();
        idx.insert(&fp, i % 3, i).unwrap();
    }
    idx.merge().unwrap();
    idx
}

/// The storage-engine facts an incident dump carries, as the recorder's
/// key/value pairs.
fn engine_fields(st: &EngineState) -> Vec<(String, String)> {
    let outcome = match st.recovery.outcome {
        MergeOutcome::Completed => "completed",
        MergeOutcome::RolledBack => "rolled_back",
        MergeOutcome::Replayed => "replayed",
    };
    vec![
        ("generation".into(), st.generation.to_string()),
        ("checkpoint_lsn".into(), st.checkpoint_lsn.to_string()),
        ("wal_len".into(), st.wal_len.to_string()),
        ("recovery_outcome".into(), outcome.into()),
    ]
}

#[test]
fn fault_storm_trips_health_dumps_incident_and_recovers() {
    let index = build_index();
    let bytes = encode(&index);
    let clock = Arc::new(MockClock::new());

    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let qs = queries(&index);
    let qrefs: Vec<&[u8]> = qs.iter().map(|q| q.as_slice()).collect();

    // The clean batch's answers with nothing armed — no span sink, no
    // recorder, no EXPLAIN: observability must never change them.
    let plain = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone())))
        .unwrap()
        .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
        .unwrap()
        .matches;

    // Continuous-observability stack: windows ticked on the mock clock,
    // stock rules, recorder with spans attached and events teed.
    let windows = Arc::new(MetricWindows::new(256));
    let engine = HealthEngine::new(default_health_rules());
    let recorder = Arc::new(FlightRecorder::new(RecorderConfig::default()));
    recorder.attach_spans();
    recorder.set_windows(Arc::clone(&windows));
    install_event_tee(&recorder, None);

    let durable = durable_fixture();
    let incident_dir = TempDir::new("health-incident");

    let tick = |w: &MetricWindows| {
        w.tick_at(clock.now(), registry().snapshot());
    };

    // Baseline tick, then one healthy window of clean traffic.
    tick(&windows);
    {
        // Span sink attached, recorder armed: same answers; and again with
        // EXPLAIN on, whose reports reconcile and state the plan's mass.
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
        let armed = disk
            .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
            .unwrap();
        assert_eq!(armed.matches, plain, "arming observability changed answers");
        let explained = disk
            .stat_query_batch_ctx(
                &qrefs,
                &model,
                &opts,
                MEM_BUDGET,
                &QueryCtx::unbounded().explain(),
            )
            .unwrap();
        assert_eq!(explained.matches, plain, "EXPLAIN changed answers");
        assert_eq!(explained.reports.len(), qrefs.len());
        for (r, q) in explained.reports.iter().zip(&qrefs) {
            assert!(r.reconciles(), "clean EXPLAIN must reconcile");
            let plan = select_blocks_best_first(
                index.curve(),
                &model,
                q,
                opts.depth,
                opts.alpha,
                opts.max_blocks,
            );
            assert_eq!(r.predicted_mass.to_bits(), plan.mass.to_bits());
        }
    }
    clock.advance(Duration::from_secs(1));
    tick(&windows);
    let report = engine.evaluate(&windows);
    recorder.observe_health(&report);
    assert_eq!(
        report.verdict,
        Verdict::Healthy,
        "clean traffic is healthy: {:?}",
        report.rules
    );
    assert_eq!(recorder.incident_count(), 0, "clean traffic dumps nothing");

    // ---- Phase A: the fault storm. --------------------------------
    // Every third read stalls 10 mock-ms (blowing the 25 ms deadline)
    // and reads are frequently torn (CRC failures above the I/O layer).
    let faulty = Arc::new(FaultyStorage::with_clock(
        MemStorage::new(bytes.clone()),
        FaultPlan {
            seed: 0xBADD_5EED,
            stall_every_n: 3,
            stall_ms: 10,
            torn_read: 0.7,
            skip_reads: 64, // open() must succeed; the query path faults
            ..FaultPlan::default()
        },
        clock.clone() as Arc<dyn Clock>,
    ));
    let disk = DiskIndex::open_storage(Box::new(Arc::clone(&faulty))).unwrap();

    let mut incident_path = None;
    let mut worst = Verdict::Healthy;
    for round in 0..8 {
        let ctx =
            QueryCtx::with_deadline(clock.clone() as Arc<dyn Clock>, Duration::from_millis(25));
        let _ = disk
            .stat_query_batch_ctx(&qrefs, &model, &opts, MEM_BUDGET, &ctx)
            .unwrap();
        clock.advance(Duration::from_secs(1));
        tick(&windows);
        let report = engine.evaluate(&windows);
        recorder.observe_health(&report);
        worst = worst.max(report.verdict);
        if report.transitioned && report.verdict != Verdict::Healthy && incident_path.is_none() {
            // Health tripped: stamp engine state and dump the black box.
            recorder.observe_state("storage_engine", engine_fields(&durable.engine_state()));
            let offender = report
                .rules
                .iter()
                .find(|r| r.level == report.verdict)
                .expect("a rule at the overall verdict");
            let path = recorder
                .dump_incident(
                    IncidentTrigger {
                        kind: "health",
                        rule: Some(offender.name.to_owned()),
                        detail: offender.detail.clone(),
                    },
                    &incident_dir,
                )
                .expect("incident written");
            incident_path = Some(path);
        }
        let _ = round;
    }
    assert!(
        worst >= Verdict::Degraded,
        "the fault storm must trip the health engine (got {worst:?})"
    );
    let incident_path = incident_path.expect("an incident dump was produced");

    // ---- The dump is a valid, complete post-mortem document. ------
    let text = std::fs::read_to_string(&incident_path).unwrap();
    let doc = JsonValue::parse(&text).expect("incident JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("s3.incident.v1")
    );
    // The triggering rule is named, and appears among the health rules
    // at a non-healthy level.
    let rule_name = doc
        .get("trigger")
        .and_then(|t| t.get("rule"))
        .and_then(|r| r.as_str())
        .expect("trigger names the rule")
        .to_owned();
    let rules = doc
        .get("health")
        .and_then(|h| h.get("rules"))
        .and_then(|r| r.as_array())
        .expect("health rules present");
    let triggering = rules
        .iter()
        .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(rule_name.as_str()))
        .expect("triggering rule listed in health.rules");
    assert_ne!(
        triggering.get("level").and_then(|l| l.as_str()),
        Some("healthy"),
        "triggering rule must be elevated"
    );
    // Recent spans were captured (the ring was attached during queries).
    let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
    assert!(!spans.is_empty(), "incident must contain recent spans");
    // Storage-engine state from the durable index.
    let engine_state = doc
        .get("state")
        .and_then(|s| s.get("storage_engine"))
        .expect("storage_engine state present");
    assert_eq!(
        engine_state.get("generation").and_then(|g| g.as_str()),
        Some("1"),
        "one applied merge => generation 1"
    );
    assert!(engine_state.get("checkpoint_lsn").is_some());
    assert!(engine_state.get("wal_len").is_some());
    assert_eq!(
        engine_state
            .get("recovery_outcome")
            .and_then(|o| o.as_str()),
        Some("completed")
    );
    // Windowed rates made it in.
    assert!(doc
        .get("windows")
        .and_then(|w| w.get("rates"))
        .and_then(|r| r.as_array())
        .is_some());
    // Events were teed (health transition emitted at least one).
    let events = doc.get("events").and_then(|e| e.as_array()).unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("target").and_then(|t| t.as_str()) == Some("health")),
        "health transition event captured"
    );

    // ---- Phase B: faults stop; hysteresis clears without flapping. --
    let clean = DiskIndex::open_storage(Box::new(MemStorage::new(bytes.clone()))).unwrap();
    let mut healthy_streak = 0u32;
    let mut flapped = false;
    let mut rounds = 0u32;
    while healthy_streak < 10 && rounds < 120 {
        let _ = clean
            .stat_query_batch(&qrefs, &model, &opts, MEM_BUDGET)
            .unwrap();
        clock.advance(Duration::from_secs(2));
        tick(&windows);
        let report = engine.evaluate(&windows);
        recorder.observe_health(&report);
        if report.verdict == Verdict::Healthy {
            healthy_streak += 1;
        } else {
            if healthy_streak > 0 {
                flapped = true; // went healthy, then re-elevated with no new faults
            }
            healthy_streak = 0;
        }
        rounds += 1;
    }
    assert_eq!(healthy_streak, 10, "verdict must recover to Healthy");
    assert!(!flapped, "verdict flapped during recovery");

    // The incident counter reflects exactly one dump.
    assert_eq!(recorder.incident_count(), 1);
    assert!(CoreMetrics::get().crc_failures.get() > 0);
}
