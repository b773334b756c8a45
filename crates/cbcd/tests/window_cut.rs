//! The monitor votes the very windows the monitoring calibration scores:
//! whole key-frames, cut by one function. Each vote leaves a `vote` span
//! carrying its window's candidate count, so the two window sequences are
//! compared span by span — which is why this binary holds a single test:
//! the span sink is process-wide.

use s3_cbcd::{calibrate_monitor_threshold, DbBuilder, Detector, DetectorConfig, Monitor};
use s3_obs::RingCollector;
use s3_video::{extract_fingerprints, ExtractorParams, ProceduralVideo};
use std::sync::Arc;

/// The candidate count and detection count of every `vote` span so far.
fn votes(spans: &RingCollector) -> Vec<(f64, f64)> {
    let field = |fields: &[(&str, f64)], key: &str| {
        fields.iter().find(|(k, _)| *k == key).map_or(-1.0, |f| f.1)
    };
    spans
        .drain()
        .into_iter()
        .filter(|s| s.name == "vote")
        .map(|s| {
            (
                field(&s.fields, "candidates"),
                field(&s.fields, "detections"),
            )
        })
        .collect()
}

#[test]
fn monitor_votes_the_calibrators_windows() {
    let mut params = ExtractorParams::default();
    params.harris.max_points = 8;
    let mut builder = DbBuilder::new(params);
    for i in 0..4 {
        builder.add_video(
            &format!("ref-{i}"),
            &ProceduralVideo::new(96, 72, 80, 2000 + i),
        );
    }
    let db = builder.build();
    // Unrelated material long enough for several windows of 30 key-frames.
    let stream = extract_fingerprints(&ProceduralVideo::new(96, 72, 300, 4242), &params);

    // Both vote with the calibrator's permissive threshold, so their
    // detection counts agree window by window too.
    let mut config = DetectorConfig::default();
    config.vote.min_votes = 1;
    let detector = Detector::new(&db, config);

    let spans = RingCollector::new(1 << 12);
    s3_obs::set_span_sink(Box::new(Arc::clone(&spans)));
    calibrate_monitor_threshold(&detector, std::slice::from_ref(&stream));
    let calibrated = votes(&spans);

    let mut monitor = Monitor::new(&detector);
    // Chunks that split key-frames, as a live capture's batches do.
    for chunk in stream.chunks(13) {
        monitor.push(chunk);
    }
    let (_, stats) = monitor.finish();
    let monitored = votes(&spans);
    s3_obs::clear_span_sink();

    assert!(calibrated.len() >= 3, "{} windows", calibrated.len());
    assert_eq!(stats.windows, calibrated.len());
    assert_eq!(monitored, calibrated);
}
