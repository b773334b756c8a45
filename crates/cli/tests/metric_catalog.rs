//! Executable documentation, both ways: after a smoke workload that
//! exercises every pipeline stage, every metric the registry contains must
//! be named in `docs/observability.md`, and every metric the catalog tables
//! there name must be registered. Adding instrumentation without
//! documenting it fails this test, and so does deleting a metric without
//! deleting its catalog row.

use s3_cbcd::{DbBuilder, Detector, DetectorConfig, Monitor, MonitorParams};
use s3_core::pseudo_disk::DiskIndex;
use s3_core::{autotune, knn, IsotropicNormal, QueryCtx, StatQueryOpts};
use s3_video::{extract_fingerprints, ExtractorParams, ProceduralVideo};

const DOC: &str = include_str!("../../../docs/observability.md");

/// Runs a small workload that touches every instrumented subsystem:
/// extraction, in-memory detection + voting, the monitor loop, k-NN, and a
/// pseudo-disk round trip with batched statistical queries, EXPLAIN and a
/// span sink installed (so sink-side metrics register too).
fn smoke_workload() {
    let collector = s3_obs::RingCollector::new(256);
    s3_obs::set_span_sink(Box::new(std::sync::Arc::clone(&collector)));

    let mut builder = DbBuilder::new(ExtractorParams::default());
    for i in 0..2u64 {
        let v = ProceduralVideo::new(96, 72, 30, 0xCA7 ^ (i << 20));
        builder.add_video(&format!("video-{i}"), &v);
    }
    let db = builder.build();

    // Detection + voting (detect.*, vote.*, video.*).
    let candidate = ProceduralVideo::new(96, 72, 20, 0xCA7);
    let fps = extract_fingerprints(&candidate, db.extractor_params());
    let detector = Detector::new(&db, DetectorConfig::default());
    let _ = detector.detect_fingerprints(&fps);
    let _ = detector.search(&fps[..fps.len().min(2)], true);

    // Monitor loop (monitor.*).
    let mut monitor = Monitor::new(&detector, MonitorParams::default());
    for chunk in fps.chunks(8) {
        let _ = monitor.push(chunk);
    }
    let _ = monitor.finish();

    // k-NN (query.knn span/histogram).
    if let Some(f) = fps.first() {
        let _ = knn::knn(db.index(), &f.fingerprint, 3, 8);
    }

    // Pseudo-disk round trip with a tight memory budget so sections stream
    // (disk.*, io.*, storage.*, calibration.*).
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let path = dir.join("metric_catalog.s3i");
    DiskIndex::write(db.index(), &path).expect("write index");
    let disk = DiskIndex::open(&path).expect("open index");
    let queries: Vec<&[u8]> = fps
        .iter()
        .take(4)
        .map(|f| f.fingerprint.as_slice())
        .collect();
    let model = IsotropicNormal::new(20, 15.0);
    let mut opts = StatQueryOpts::new(0.8, 0);
    opts.depth = autotune::learn_depth_on(&disk, &model, &opts, &queries).best_depth;
    let batch = disk
        .stat_query_batch_ctx(
            &queries,
            &model,
            &opts,
            1 << 20,
            &QueryCtx::unbounded().explain(),
        )
        .expect("explain batch");
    assert!(
        !batch.reports.is_empty(),
        "smoke produced no explain reports"
    );
    let _ = std::fs::remove_file(&path);

    // Durable telemetry (tsdb.*, slowlog.*, slo.*): append one windowed
    // frame to the embedded time-series store, capture one degraded
    // query into the slow-query log, and evaluate the stock SLOs.
    let tel_dir = dir.join("metric_catalog_tel");
    let _ = std::fs::remove_dir_all(&tel_dir);
    let windows = s3_ops::MetricWindows::new(8);
    let time = s3_obs::ManualTime::new();
    windows.tick(&time);
    time.advance(std::time::Duration::from_secs(1));
    windows.tick(&time);
    let mut tsdb = s3_ops::Tsdb::open(&tel_dir, s3_ops::TsdbConfig::default()).expect("open tsdb");
    tsdb.append_latest(&windows).expect("append frame");
    let slowlog =
        s3_ops::SlowLog::open(&tel_dir, s3_ops::SlowLogConfig::default()).expect("open slowlog");
    let mut degraded = batch.reports[0].clone();
    degraded.annotations.push("smoke degradation".into());
    slowlog.observe(&degraded);
    let slo = s3_ops::SloEngine::new(s3_ops::default_slos(std::time::Duration::from_millis(500)));
    let _ = slo.evaluate(&windows);
    drop(tsdb);
    let _ = std::fs::remove_dir_all(&tel_dir);

    // Events (events.*) — emit one of each level through the sink API.
    s3_obs::event::info("catalog", "smoke info");
    s3_obs::event::warn("catalog", "smoke warn");
    s3_obs::event::error("catalog", "smoke error");

    // Health engine + flight recorder (health, health.rule,
    // health.transitions, recorder.incidents): tick a window ring and
    // evaluate the stock rules once so their gauges register.
    let windows = s3_ops::MetricWindows::new(8);
    let time = s3_obs::ManualTime::new();
    windows.tick(&time);
    time.advance(std::time::Duration::from_secs(1));
    windows.tick(&time);
    let engine = s3_ops::HealthEngine::new(s3_ops::default_health_rules());
    let _ = engine.evaluate(&windows);
    let _ = s3_ops::FlightRecorder::new(s3_ops::RecorderConfig::default());

    s3_obs::clear_span_sink();
}

/// Runs [`smoke_workload`] once per test process, whichever test asks first
/// (both tests read the process-global registry it fills, and it writes
/// fixed paths).
fn smoke_once() {
    static DONE: std::sync::Once = std::sync::Once::new();
    DONE.call_once(smoke_workload);
}

/// Every metric name the registry holds, labels dropped.
fn registered_names() -> Vec<&'static str> {
    let snap = s3_obs::registry().snapshot();
    snap.counters
        .iter()
        .map(|(id, _)| id.name)
        .chain(snap.gauges.iter().map(|(id, _)| id.name))
        .chain(snap.histograms.iter().map(|(id, _)| id.name))
        .collect()
}

/// The names in the first column of every table row of the doc's
/// "Metric catalog" section (counters, gauges, histograms), labels
/// (`{policy=…}`) dropped. A cell may name several metrics.
fn catalog_names() -> Vec<&'static str> {
    let start = DOC.find("\n## Metric catalog").expect("catalog section");
    let section = &DOC[start + 1..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let mut names = Vec::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let first = row.split('|').nth(1).unwrap_or("");
        for name in first.split('`').skip(1).step_by(2) {
            names.push(name.split('{').next().unwrap_or(name));
        }
    }
    names
}

#[test]
fn every_registered_metric_is_documented() {
    smoke_once();
    let names = registered_names();
    assert!(
        names.len() > 30,
        "smoke workload registered suspiciously few metrics: {names:?}"
    );
    let mut missing: Vec<&str> = names
        .into_iter()
        .filter(|name| !DOC.contains(name))
        .collect();
    missing.sort_unstable();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "metrics registered but not documented in docs/observability.md: {missing:?}"
    );
}

#[test]
fn every_catalog_metric_is_registered() {
    smoke_once();
    let registered = registered_names();
    let catalog = catalog_names();
    assert!(
        catalog.len() > 30,
        "catalog tables name suspiciously few metrics: {catalog:?}"
    );
    let mut stale: Vec<&str> = catalog
        .into_iter()
        .filter(|name| !registered.contains(name))
        .collect();
    stale.sort_unstable();
    stale.dedup();
    assert!(
        stale.is_empty(),
        "metrics in the docs/observability.md catalog but never registered: {stale:?}"
    );
}
